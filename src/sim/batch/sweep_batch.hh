/**
 * @file
 * SweepBatch: K compatible sweep points simulated as lanes of one
 * batch off a shared workload replay (DESIGN.md §14).
 *
 * A sweep grid re-simulates the same (benchmark, seed) once per
 * scheme × width × register-count point; everything the front end
 * derives from the program alone — block decode, micro-trace
 * pointer chasing, generator parameter folds — is identical across
 * those points. A batch therefore shares one SyntheticProgram, one
 * compiled ProgramTraces acquisition, and one committed-path
 * ReplayTape across its lanes, and each lane re-derives only what
 * its own timing diverges on (wrong-path fetches).
 *
 * Lanes are stepped round-robin in committed-instruction quanta;
 * each lane's hot core state lives in its own LaneArena (huge-page
 * slabs, reused across batches), so the K live machines stay
 * cache-compact instead of strewn across the heap. A lane that
 * finishes early retires from the rotation; stragglers keep going
 * alone. Results are byte-identical to serial execution — the
 * phase machine is slice-invariant (see SimInstance) and the tape
 * holds exactly what live generation would produce.
 */

#ifndef PRI_SIM_BATCH_SWEEP_BATCH_HH
#define PRI_SIM_BATCH_SWEEP_BATCH_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sim/sim_instance.hh"

namespace pri::sim
{

/** Lane count used for "auto" (--batch 0): points per group is
 *  bounded by the grid shape, so this just caps arena residency. */
unsigned defaultBatchLanes();

/**
 * May this point share a batch? Fault-injection points must run the
 * legacy serial path: a planted fault perturbs walker state (e.g.
 * StaleWalkerGidx), and replaying the healthy tape at the perturbed
 * index would produce a different (less buggy) stream than the
 * legacy live generation the fault-detection tests pin down.
 */
bool batchable(const RunParams &params);

/** One formed batch: original submission indices of its lanes. */
struct BatchGroup
{
    std::vector<size_t> indices;
};

/**
 * Group @p pending (indices into @p all, submission order) into
 * batches of at most @p lanes compatible points. Compatibility key:
 * (benchmark, seed, warmupInsts, measureInsts) — lanes must walk
 * the same committed path for the same distance to share the tape.
 * Unbatchable points come back as singleton groups. Group order is
 * deterministic: first-seen-key order, overflow starting new groups.
 */
std::vector<BatchGroup>
formBatches(const std::vector<RunParams> &all,
            const std::vector<size_t> &pending, unsigned lanes);

/** What one lane produced: a result or the error that ended it. */
struct LaneOutcome
{
    RunResult result;
    std::string error; ///< empty on success (unprefixed)
    bool stalled = false;

    bool ok() const { return error.empty(); }
};

/**
 * One batch in flight. Lifecycle: prepare() builds the shared
 * workload and the lanes (the allocation phase), drain() round-
 * robins the lanes to completion (the zero-steady-state-allocation
 * replay loop; tests/test_alloc_gates.cpp gates this window), and
 * finalize() assembles per-lane outcomes. Runs entirely on the
 * calling thread.
 */
class SweepBatch
{
  public:
    SweepBatch(const std::vector<RunParams> &all,
               const BatchGroup &group);
    ~SweepBatch();

    SweepBatch(const SweepBatch &) = delete;
    SweepBatch &operator=(const SweepBatch &) = delete;

    /** Build shared workload + lanes. Lane build errors are
     *  captured into that lane's outcome, not thrown. */
    void prepare();

    /** Step all live lanes round-robin until each is done or dead.
     *  Commit quantum: PRI_BATCH_QUANTUM env, else a quantum large
     *  enough that each turn runs to the lane's next phase boundary
     *  (fine-grained rotation thrashes per-lane machine state). */
    void drain();

    /** Per-lane outcomes, in group-lane order (same order as
     *  group.indices). Destroys the lanes. */
    std::vector<LaneOutcome> finalize();

    /** Tape bytes built for this batch (diagnostics). */
    uint64_t tapeBytes() const;

  private:
    struct Lane
    {
        size_t origIndex = 0;
        std::string flightCtx; ///< pre-formatted (no alloc in drain)
        std::unique_ptr<SimInstance> inst;
        LaneOutcome out;
        bool active = false;
    };

    const std::vector<RunParams> &all;
    BatchGroup group;
    SharedWorkload shared;
    std::unique_ptr<workload::ReplayTape> tape;
    std::vector<Lane> lanes;
};

} // namespace pri::sim

#endif // PRI_SIM_BATCH_SWEEP_BATCH_HH
