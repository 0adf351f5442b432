/**
 * @file
 * Static synthetic programs.
 *
 * A SyntheticProgram is a real control-flow graph: functions made of
 * basic blocks, blocks made of static instructions, terminators with
 * taken-targets and biases, calls/returns, and memory streams. Built
 * deterministically from (profile, seed), it is walked dynamically by
 * the Walker — including down mispredicted paths, which is what lets
 * the timing core model wrong-path register pressure the way the
 * paper's execution-driven simulator does.
 */

#ifndef PRI_WORKLOAD_PROGRAM_HH
#define PRI_WORKLOAD_PROGRAM_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hashing.hh"
#include "isa/op_class.hh"
#include "isa/reg.hh"
#include "workload/profile.hh"

namespace pri::workload
{

constexpr uint32_t kNoBlock = 0xffffffff;

/** Memory access stream: where a static load/store's addresses go. */
struct MemStream
{
    uint64_t base = 0;       ///< base virtual address
    uint64_t bytes = 4096;   ///< working-set size of this stream
    bool random = false;     ///< random within the set vs sequential
};

/** One static instruction. */
struct StaticInst
{
    uint32_t id = 0;
    uint64_t pc = 0;
    isa::OpClass cls = isa::OpClass::IntAlu;
    isa::RegId dst = isa::noReg();
    isa::RegId src1 = isa::noReg();
    isa::RegId src2 = isa::noReg();

    /** Index into SyntheticProgram::streams for loads/stores. */
    int32_t memStream = -1;
    /** Alternate (random) stream: the walker picks it with
     *  probability randomAccessFrac per dynamic instance, which
     *  keeps the dynamic stream-type mix on-profile even when a few
     *  hot static loads dominate execution. */
    int32_t altStream = -1;

    // --- terminator info (cls == Branch) ---
    uint32_t takenBlock = kNoBlock; ///< taken-target block id
    float bias = 0.5f;              ///< taken probability
    bool isCall = false;
    bool isReturn = false;
    bool isUncond = false;
    /** Hard branch whose instances may be history-correlated. */
    bool correlatable = false;

    /** Per-static operand width bias (integer destinations). */
    uint8_t widthClass = 32;

    /** Compiler dead-value hint: always produces the value 0. */
    bool isDeadHint = false;
};

/** A basic block: a body, an optional terminator, and a successor. */
struct BasicBlock
{
    uint32_t id = 0;
    uint64_t startPc = 0;
    std::vector<StaticInst> insts;
    /** Successor when falling through (kNoBlock never happens: every
     *  block either falls through or ends in an unconditional
     *  transfer). */
    uint32_t fallthrough = kNoBlock;

    /** True when the last instruction is a control transfer. */
    bool
    endsInBranch() const
    {
        return !insts.empty() &&
            insts.back().cls == isa::OpClass::Branch;
    }
};

/** A position inside the program: block id + instruction index. */
struct ProgLoc
{
    uint32_t block = 0;
    uint32_t idx = 0;

    bool
    operator==(const ProgLoc &o) const
    {
        return block == o.block && idx == o.idx;
    }
};

/**
 * The static program for one benchmark profile. Immutable after
 * construction, so one instance is shared read-only by every walker
 * and core of its (benchmark, seed) (TraceCache::workload).
 */
class SyntheticProgram
{
  public:
    /** Build the CFG, registers, streams from (profile, seed). */
    SyntheticProgram(const BenchmarkProfile &profile, uint64_t seed);

    const BenchmarkProfile &profile() const { return prof; }
    uint64_t seed() const { return theSeed; }

    const BasicBlock &
    block(uint32_t id) const
    {
        return blocks_.at(id);
    }
    size_t numBlocks() const { return blocks_.size(); }
    size_t numStaticInsts() const { return numInsts; }
    const std::vector<MemStream> &streams() const { return streams_; }

    /** Entry point: function 0, block 0, instruction 0. */
    ProgLoc entry() const { return ProgLoc{0, 0}; }

    /**
     * Map a control-transfer target PC back to a location. Targets
     * are always block starts (branch targets, call entries, return
     * addresses). Panics on a PC that is not a block start.
     */
    ProgLoc locateBlockStart(uint64_t pc) const;

    /** The dense width CDF for integer value generation. */
    const WidthCdf &widthCdf() const { return cdf; }

    /** Entry block id of each function (for tests/examples). */
    const std::vector<uint32_t> &
    functionEntries() const
    {
        return funcEntry;
    }

    /** Content fingerprint (trace::programFingerprint), hashed once
     *  at construction because the program never changes. */
    uint64_t fingerprint() const { return fp; }

  private:
    void buildStreams();
    void buildFunctions(SplitMixRng &rng);
    uint64_t computeFingerprint() const;

    const BenchmarkProfile &prof;
    uint64_t theSeed;
    WidthCdf cdf;
    std::vector<BasicBlock> blocks_;
    std::vector<MemStream> streams_;
    std::vector<uint32_t> funcEntry;
    std::unordered_map<uint64_t, uint32_t> blockByPc;
    size_t numInsts = 0;
    uint64_t fp = 0;
};

} // namespace pri::workload

#endif // PRI_WORKLOAD_PROGRAM_HH
