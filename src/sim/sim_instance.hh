/**
 * @file
 * SimInstance: one simulation request as a steppable object.
 *
 * simulate() is SimInstance run to completion in one go; a
 * SweepBatch (DESIGN.md §14) holds K of them — the lanes — and
 * round-robins step() across them in committed-instruction quanta
 * off one shared workload (program + compiled traces + ReplayTape).
 * The phase machine (Warmup → Measure → Done) reproduces exactly
 * the operation sequence of the old monolithic simulate() body:
 * cpu.run() is slice-invariant (its commit target, watchdog audit
 * points, and wall-clock deadline are all absolute), so splitting
 * the two big run() calls into quanta leaves every cycle — and
 * therefore every stat and the full report — byte-identical.
 */

#ifndef PRI_SIM_SIM_INSTANCE_HH
#define PRI_SIM_SIM_INSTANCE_HH

#include <cstdint>
#include <memory>

#include "common/arena.hh"
#include "golden/diff_checker.hh"
#include "sim/simulation.hh"
#include "workload/replay_tape.hh"
#include "workload/trace/trace_cache.hh"

namespace pri::sim
{

/**
 * Workload state shared read-only by every lane of a batch: the
 * synthetic program, its compiled micro-traces, and the pre-built
 * committed-path tape. All lanes of a batch have the same
 * (benchmark, seed), so one of each serves the whole batch.
 */
struct SharedWorkload
{
    std::shared_ptr<const workload::SyntheticProgram> program;
    std::shared_ptr<const workload::trace::ProgramTraces> traces;
    /** Null = every lane generates its stream live. */
    const workload::ReplayTape *tape = nullptr;
};

/** One simulation, steppable in committed-instruction quanta. */
class SimInstance
{
  public:
    /**
     * Build the machine for @p params. @p shared, when non-null,
     * supplies the workload (batched lanes); null builds a private
     * program/traces, which is the serial simulate() path. @p arena,
     * when non-null, becomes the ambient arena while the core is
     * constructed, packing its hot per-lane state (ROB rings,
     * free-list stacks, scheduler bitmaps, ...) into that lane's
     * slabs. The arena must outlive the instance.
     *
     * Does NOT apply the injectTransientFails seam — callers that
     * retry (simulate(), the batch path) throw it themselves before
     * constructing the machine.
     */
    SimInstance(const RunParams &params,
                const SharedWorkload *shared = nullptr,
                LaneArena *arena = nullptr);

    SimInstance(const SimInstance &) = delete;
    SimInstance &operator=(const SimInstance &) = delete;

    /**
     * Advance up to @p quantum committed instructions (kNoLimit =
     * run the current phase to completion). Returns true once the
     * run is complete; finish() may then be called.
     */
    bool step(uint64_t quantum);

    bool done() const { return phase == Phase::Done; }

    /** Assemble the RunResult (legal once done()). */
    RunResult finish();

    /** Params this instance was built for (batch bookkeeping). */
    const RunParams &runParams() const { return params; }

    static constexpr uint64_t kNoLimit = ~uint64_t{0};

  private:
    enum class Phase : uint8_t
    {
        Warmup,
        Measure,
        Done,
    };

    RunParams params;

    /** Owned when built serially, aliased when batch-shared. */
    std::shared_ptr<const workload::SyntheticProgram> program;

    StatGroup stats;
    std::unique_ptr<core::OutOfOrderCore> cpu;
    std::unique_ptr<golden::DiffChecker> checker;

    Phase phase = Phase::Warmup;
    uint64_t measureTarget = 0; ///< absolute committed-inst target

    // Measurement-window baselines, captured at beginMeasurement.
    uint64_t c0 = 0;
    uint64_t i0 = 0;
    double mp0 = 0, br0 = 0, pf0 = 0, ef0 = 0, nw0 = 0, da0 = 0;
    // PRF read-port counters (stay 0 when ports are unlimited; the
    // stats are only registered for finite budgets and
    // scalarValue() reads absent names as 0).
    double ps0 = 0, pr0 = 0, pb0 = 0;
};

/** The core config simulate() builds for @p params, with the
 *  PRI_WATCHDOG_CYCLES override applied. */
core::CoreConfig coreConfigFor(const RunParams &params);

} // namespace pri::sim

#endif // PRI_SIM_SIM_INSTANCE_HH
