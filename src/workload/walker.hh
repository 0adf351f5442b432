/**
 * @file
 * Dynamic instruction-stream walker.
 *
 * Walks a SyntheticProgram under front-end control: the core fetches
 * instructions with next(); for every branch the core must steer()
 * the walker down the direction it chose to *fetch* (the predicted
 * one), which may be the wrong path. On a misprediction the core
 * restores the checkpoint it took at the branch and re-steers with
 * the actual outcome. All value/outcome/address randomness is a pure
 * function of walker state that is saved in the checkpoint, so the
 * committed path is identical regardless of timing (DESIGN.md §5).
 *
 * Two decode paths produce byte-identical streams (DESIGN.md §13):
 * the legacy path re-derives everything from the StaticInst per
 * dynamic instance, while the traced path (constructed with compiled
 * ProgramTraces) replays flat pre-decoded MicroOp arrays with a
 * pointer bump and single-round pre-folded hash draws. Walker state
 * (loc, stack, gidx, hist) and checkpoint/steer/restore semantics are
 * identical in both modes.
 */

#ifndef PRI_WORKLOAD_WALKER_HH
#define PRI_WORKLOAD_WALKER_HH

#include <cstdint>
#include <vector>

#include "workload/program.hh"
#include "workload/trace/micro_op.hh"
#include "workload/winst.hh"

namespace pri::workload
{

namespace trace
{
class ProgramTraces;
} // namespace trace

/** Restorable walker state, captured at every fetched branch. */
struct WalkerCkpt
{
    ProgLoc loc;                  ///< position of the branch itself
    std::vector<ProgLoc> stack;   ///< call-stack of return locations
    uint64_t gidx = 0;            ///< dynamic index counter
    uint64_t hist = 0;            ///< speculative global history
};

/** Front-end instruction supplier for one benchmark run. */
class Walker
{
  public:
    /**
     * @p traces, when non-null, switches the walker to trace replay;
     * it must be the compiled form of @p program (same fingerprint)
     * and must outlive the walker. Null selects the legacy decode
     * path (the golden model always uses it, so golden-checked runs
     * cross-check the two paths instruction by instruction).
     */
    explicit Walker(const SyntheticProgram &program,
                    const trace::ProgramTraces *traces = nullptr);
    ~Walker();

    Walker(const Walker &) = delete;
    Walker &operator=(const Walker &) = delete;

    /**
     * Generate the instruction at the current location. Non-branches
     * advance the walker; a branch leaves it paused at the branch
     * until steer() is called.
     */
    WInst next();

    /**
     * Move past the pending branch in the direction the front-end
     * fetches. @p taken is the fetched direction and @p target_pc the
     * fetched target (must be a block-start PC); ignored when not
     * taken.
     */
    void steer(const WInst &branch, bool taken, uint64_t target_pc);

    /** True when next() returned a branch that has not been steered. */
    bool branchPending() const { return pending; }

    /** PC of the instruction next() will return (fetch address).
     *  Called once per fetch cycle; the traced form is a single
     *  load off the current MicroOp. */
    uint64_t
    currentPc() const
    {
        return cur != nullptr
            ? cur->pc
            : prog.block(loc.block).insts.at(loc.idx).pc;
    }

    /** Capture restorable state (legal only while a branch pends). */
    WalkerCkpt checkpoint() const;

    /**
     * Capture restorable state into caller-owned storage. @p out's
     * stack vector is reused (assign, not reallocate), so a pooled
     * checkpoint slot grows once to the deepest call stack seen and
     * never allocates again.
     */
    void checkpointInto(WalkerCkpt &out) const;

    /** Restore state captured at a mispredicted branch. */
    void restore(const WalkerCkpt &ckpt);

    const SyntheticProgram &program() const { return prog; }

    /** Is this walker replaying compiled micro-traces? */
    bool traced() const { return cur != nullptr; }

    // --- value generators (exposed for tests and the Figure 2
    //     operand-significance study) ---

    /** Deterministic integer result for (static inst, dynamic idx). */
    uint64_t genIntValue(const StaticInst &si, uint64_t g) const;
    /** Deterministic FP result (raw IEEE-754 bits). */
    uint64_t genFpValue(const StaticInst &si, uint64_t g) const;
    /** Deterministic effective address. */
    uint64_t genAddress(const StaticInst &si, uint64_t g) const;

  private:
    /** Resolve the actual outcome of a conditional branch. */
    bool branchOutcome(const StaticInst &si, uint64_t g) const;

    /** Trace-replay twin of next(): pointer bump + kind dispatch. */
    WInst nextTraced();

    // Pre-folded replay generators (byte-identical to the ones above
    // by the gen_params.hh folding identity).
    uint64_t replayIntValue(const trace::MicroOp &op, uint64_t g) const;
    uint64_t replayFpValue(const trace::MicroOp &op, uint64_t g) const;
    uint64_t replayAddress(const trace::MicroOp &op, uint64_t g) const;
    bool replayBranchOutcome(const trace::MicroOp &op,
                             uint64_t g) const;

    const SyntheticProgram &prog;
    uint64_t seed;

    ProgLoc loc;
    std::vector<ProgLoc> stack;
    uint64_t gidx = 0;
    uint64_t hist = 0;
    uint64_t seqCounter = 0; ///< monotonic; never rolled back
    bool pending = false;

    // --- trace replay state ---
    const trace::ProgramTraces *tr = nullptr;
    /** The MicroOp at loc; kept in lock-step with (loc.block, loc.idx)
     *  by next/steer/restore. Null on the legacy path. */
    const trace::MicroOp *cur = nullptr;
    uint64_t nReplayed = 0;     ///< flushed to TraceCache stats
    uint64_t nLegacyDecoded = 0;
};

} // namespace pri::workload

#endif // PRI_WORKLOAD_WALKER_HH
