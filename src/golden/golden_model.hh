/**
 * @file
 * Golden model: a standalone in-order architectural interpreter.
 *
 * Consumes the same deterministic workload walker as the timing core
 * but executes only the committed path, one instruction at a time:
 * every branch is steered down its *actual* direction, so the model
 * never sees a wrong path, never speculates, and never recovers. It
 * maintains nothing but the architectural register file.
 *
 * Because the walker's randomness is a pure function of restorable
 * walker state (DESIGN.md §5), the out-of-order core's committed
 * stream must match this interpreter instruction for instruction —
 * PCs, destination values, effective addresses, branch outcomes —
 * regardless of timing, speculation depth, or register-management
 * scheme. The DiffChecker enforces exactly that.
 */

#ifndef PRI_GOLDEN_GOLDEN_MODEL_HH
#define PRI_GOLDEN_GOLDEN_MODEL_HH

#include <array>
#include <cstdint>

#include "isa/op_class.hh"
#include "isa/reg.hh"
#include "workload/walker.hh"

namespace pri::golden
{

/** One instruction as architecturally executed by the golden model. */
struct GoldenInst
{
    uint64_t index = 0; ///< committed-instruction ordinal (0-based)
    uint64_t pc = 0;
    isa::OpClass cls = isa::OpClass::Nop;
    isa::RegId dst = isa::noReg();
    uint64_t value = 0;   ///< destination value (raw bits for FP)
    uint64_t memAddr = 0; ///< effective address (loads/stores)
    bool taken = false;   ///< actual direction (branches)
    uint64_t target = 0;  ///< actual taken-path target (branches)
};

/** In-order architectural interpreter over a SyntheticProgram. */
class GoldenModel
{
  public:
    explicit GoldenModel(const workload::SyntheticProgram &program);

    /** Execute the next committed instruction. */
    const GoldenInst &step();

    /** Instructions executed so far. */
    uint64_t committed() const { return n; }

    /** Architectural value of one logical register (flat index). */
    uint64_t archReg(unsigned flat) const { return arch[flat]; }

    /** The full architectural register file (INT then FP). */
    const std::array<uint64_t, 2 * isa::kNumLogicalRegs> &
    archFile() const
    {
        return arch;
    }

  private:
    /** Deliberately constructed without traces: the reference stays
     *  on the legacy decode path, so any golden-checked run of a
     *  traced core cross-checks the two front-end implementations
     *  instruction by instruction for free (DESIGN.md §13). */
    workload::Walker walker;
    std::array<uint64_t, 2 * isa::kNumLogicalRegs> arch{};
    GoldenInst cur;
    uint64_t n = 0;
};

} // namespace pri::golden

#endif // PRI_GOLDEN_GOLDEN_MODEL_HH
