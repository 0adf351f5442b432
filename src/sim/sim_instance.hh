/**
 * @file
 * SimInstance: one simulation request, built and then run.
 *
 * simulate() is a SimInstance built and run in one go. The
 * constructor takes the program and compiled traces of the request's
 * (benchmark, seed) from the process-wide workload cache
 * (TraceCache::workload, DESIGN.md §14), so every sweep point of one
 * workload shares them read-only; the core, its stats and the
 * optional golden checker are the instance's own.
 */

#ifndef PRI_SIM_SIM_INSTANCE_HH
#define PRI_SIM_SIM_INSTANCE_HH

#include <cstdint>
#include <memory>

#include "golden/diff_checker.hh"
#include "sim/simulation.hh"
#include "workload/trace/trace_cache.hh"

namespace pri::sim
{

/** One simulation: the machine built for a RunParams. */
class SimInstance
{
  public:
    /**
     * Build the machine for @p params on the cached workload of its
     * (benchmark, seed). Throws std::invalid_argument on an unknown
     * benchmark or on parameters coreConfigFor() rejects.
     */
    explicit SimInstance(const RunParams &params);

    SimInstance(const SimInstance &) = delete;
    SimInstance &operator=(const SimInstance &) = delete;

    /** Warm up, measure, and assemble the RunResult. Call once. */
    RunResult run();

    /** The shared program and traces this instance runs on. */
    const workload::trace::Workload &workload() const { return work; }

  private:
    /** Assemble the RunResult once the measure phase committed. */
    RunResult finish();

    RunParams params;
    workload::trace::Workload work;

    StatGroup stats;
    std::unique_ptr<core::OutOfOrderCore> cpu;
    std::unique_ptr<golden::DiffChecker> checker;

    // Measurement-window baselines, captured at beginMeasurement.
    uint64_t c0 = 0;
    uint64_t i0 = 0;
    double mp0 = 0, br0 = 0, pf0 = 0, ef0 = 0, nw0 = 0, da0 = 0;
    // PRF read-port counters (stay 0 when ports are unlimited; the
    // stats are only registered for finite budgets and
    // scalarValue() reads absent names as 0).
    double ps0 = 0, pr0 = 0, pb0 = 0;
};

/**
 * The core config simulate() builds for @p params. Throws
 * std::invalid_argument for a point no machine can run: a width
 * with no core::kMachineTable row, no measured instructions, a
 * read-port budget of 1, or no more physical registers than the 32
 * architected ones (plus the VP reserve under virtual-physical
 * schemes).
 */
core::CoreConfig coreConfigFor(const RunParams &params);

} // namespace pri::sim

#endif // PRI_SIM_SIM_INSTANCE_HH
