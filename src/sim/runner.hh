/**
 * @file
 * SimulationRunner: a fixed-size thread pool that fans a batch of
 * independent simulation requests out across worker threads.
 *
 * Runs share only read-only state — the program and compiled
 * traces of their (benchmark, seed), from the process-wide workload
 * cache — and each owns its StatGroup and core, so the only
 * coordination the pool needs is an atomic work-stealing index.
 * A batch owns the lifetime of its workloads: when the last of its
 * points on a (benchmark, seed) finishes, the runner releases that
 * workload from the cache, so a sweep holds only the workloads it
 * still has points for.
 * Results are returned in submission order, which keeps every
 * figure table byte-identical to serial execution; `jobs == 1`
 * degenerates to a plain loop with no threads created.
 *
 * The runner is fault-tolerant: a run that panics, fatals, stalls
 * (core::ProgressStallError from the forward-progress watchdog), or
 * throws is captured into its own Outcome — with the run index and
 * a one-line parameter summary prefixed to the error — while every
 * sibling point completes normally. Each point is simulated exactly
 * once: the simulator is deterministic, so a point that failed
 * would fail again byte for byte. An optional SweepJournal serves
 * points a previous (possibly killed) process already finished, on
 * the calling thread before any worker starts, and persists each
 * new result as it lands.
 */

#ifndef PRI_SIM_RUNNER_HH
#define PRI_SIM_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulation.hh"

namespace pri::sim
{

class SweepJournal;

/**
 * Worker count used when the caller does not specify one:
 * std::thread::hardware_concurrency(), minimum 1.
 */
unsigned defaultJobs();

/** Thread-pool executor for batches of independent simulations. */
class SimulationRunner
{
  public:
    /** @param jobs worker threads; 0 means defaultJobs(). */
    explicit SimulationRunner(unsigned jobs = 0);

    unsigned jobs() const { return nJobs; }

    /** Does nothing. It stays only because bench/perf/child.cpp
     *  still calls it; remove both at the next change to that
     *  benchmark. */
    void setBatchLanes(unsigned) {}

    /**
     * Consult @p j before simulating (hits are returned without
     * re-running, looked up on the calling thread) and persist every
     * fresh success. Not owned; must outlive run()/runCaptured().
     * nullptr disables.
     */
    void setJournal(SweepJournal *j) { journal = j; }

    /** One run's outcome: a result, or the error that ended it. */
    struct Outcome
    {
        RunResult result;
        std::string error;       ///< empty on success
        /** Failed via the forward-progress watchdog or a budget
         *  (core::ProgressStallError) rather than a plain error. */
        bool stalled = false;
        /** Result came from the sweep journal; not re-simulated. */
        bool fromJournal = false;

        bool ok() const { return error.empty(); }
    };

    /**
     * Simulate every element of @p batch and return the results in
     * submission order. A failed run (an exception escaping
     * simulate()) is reported via fatal() after all workers have
     * drained, so no thread is ever abandoned; the message names
     * the run index and its parameters.
     */
    std::vector<RunResult> run(const std::vector<RunParams> &batch) const;

    /**
     * Like run(), but per-run failures — exceptions, panics,
     * fatals, watchdog stalls — are captured into the matching
     * Outcome instead of terminating the program. Sibling runs are
     * unaffected; their results are bit-identical to a fault-free
     * batch. Each (benchmark, seed) workload is released from the
     * cache after its last point.
     */
    std::vector<Outcome>
    runCaptured(const std::vector<RunParams> &batch) const;

    /**
     * Per-point error table for the failed entries of @p outcomes
     * (one line per failure: index, parameter summary, first line
     * of the error). Empty string when every outcome is ok.
     */
    static std::string
    describeFailures(const std::vector<Outcome> &outcomes);

    /**
     * Generic indexed parallel-for for harnesses whose sweep points
     * are not expressible as RunParams (a modified workload profile,
     * a study that builds no core, ...). Calls @p fn for
     * every index in [0, n), distributing indices across the pool;
     * @p fn must only touch index-owned state. Blocks until all
     * indices are done.
     *
     * Worker threads run @p fn in error-capture mode, so a panic()
     * or fatal() inside a worker becomes an exception instead of
     * tearing the process down under a live pool; once every worker
     * has drained, the first captured error is re-raised on the
     * calling thread (fatal errors via fatal(), others rethrown).
     * With one worker, @p fn runs inline on the calling thread in
     * whatever error mode the caller already has.
     */
    void forEach(size_t n, const std::function<void(size_t)> &fn) const;

  private:
    /** Simulate point @p index once; journal a success, prefix a
     *  failure's error with the point. */
    Outcome runOne(size_t index, const RunParams &params) const;

    unsigned nJobs;
    SweepJournal *journal = nullptr;
};

} // namespace pri::sim

#endif // PRI_SIM_RUNNER_HH
