#include "sweep_batch.hh"

#include <cstdlib>
#include <map>
#include <tuple>

#include "common/flight_recorder.hh"
#include "common/logging.hh"
#include "workload/program.hh"
#include "workload/profile.hh"

namespace pri::sim
{

namespace
{

/** Committed-path slack past warmup + measure: the final cycle of a
 *  run can overshoot the commit target by a commit-width's worth of
 *  instructions, and wrong-path fetches past the last committed
 *  instruction still read the tape while on-path. Cheap insurance —
 *  entries are ~100B and off-tape reads just fall back to live
 *  generation. */
constexpr uint64_t kTapeSlack = 4096;

/** Default committed instructions per lane turn. A lane's machine
 *  state (~1MB of ROB/rename/scheduler arrays) dwarfs the shared
 *  tape, so fine-grained rotation just thrashes the cache refilling
 *  lane state: measured on the fig10 quick grid, a 4096-instruction
 *  quantum costs ~8% end-to-end versus coarse turns, and throughput
 *  improves monotonically with quantum size. Default to a quantum
 *  larger than any phase slice so each turn runs to the lane's next
 *  phase boundary; PRI_BATCH_QUANTUM overrides for tests that want
 *  to exercise fine-grained rotation and straggler interleaving. */
constexpr uint64_t kCommitQuantum = 1u << 20;

uint64_t
batchQuantum()
{
    static const uint64_t q = [] {
        if (const char *s = std::getenv("PRI_BATCH_QUANTUM")) {
            const uint64_t v = std::strtoull(s, nullptr, 10);
            if (v != 0)
                return v;
        }
        return kCommitQuantum;
    }();
    return q;
}

/** Per-worker-thread arena pool, one arena per lane slot, slabs
 *  retained and rewound across batches. Arenas must outlive every
 *  SimInstance built on them; batches on one thread are strictly
 *  sequential, so resetting slot i in prepare() is safe — the
 *  previous batch's lanes were destroyed in its finalize(). */
LaneArena &
laneArena(size_t lane)
{
    static thread_local std::vector<std::unique_ptr<LaneArena>> pool;
    while (pool.size() <= lane)
        pool.push_back(std::make_unique<LaneArena>());
    return *pool[lane];
}

} // namespace

unsigned
defaultBatchLanes()
{
    return 16;
}

bool
batchable(const RunParams &params)
{
    return params.injectFault == core::InjectedFault::None &&
        !params.injectFreeWithoutInline &&
        params.injectTransientFails == 0;
}

std::vector<BatchGroup>
formBatches(const std::vector<RunParams> &all,
            const std::vector<size_t> &pending, unsigned lanes)
{
    PRI_ASSERT(lanes >= 1);
    using Key = std::tuple<std::string, uint64_t, uint64_t, uint64_t>;
    std::vector<BatchGroup> groups;
    // key -> index into groups of that key's currently-open group
    std::map<Key, size_t> open;
    for (const size_t idx : pending) {
        const RunParams &p = all[idx];
        if (!batchable(p) || lanes == 1) {
            groups.push_back(BatchGroup{{idx}});
            continue;
        }
        const Key key{p.benchmark, p.seed, p.warmupInsts,
                      p.measureInsts};
        auto it = open.find(key);
        if (it == open.end() ||
            groups[it->second].indices.size() >= lanes) {
            groups.push_back(BatchGroup{});
            open[key] = groups.size() - 1;
            it = open.find(key);
        }
        groups[it->second].indices.push_back(idx);
    }
    return groups;
}

SweepBatch::SweepBatch(const std::vector<RunParams> &all,
                       const BatchGroup &group)
    : all(all), group(group)
{
}

SweepBatch::~SweepBatch() = default;

void
SweepBatch::prepare()
{
    PRI_ASSERT(!group.indices.empty());
    const RunParams &first = all[group.indices.front()];

    FlightRecorder &fr = flightRecorder();
    fr.clear();
    fr.setContext(
        fmtStr("batch x{} {}", group.indices.size(),
               paramsSummary(first))
            .c_str());

    const auto &profile = workload::profileByName(first.benchmark);
    shared.program =
        std::make_shared<const workload::SyntheticProgram>(
            profile, first.seed);

    // One trace acquisition and one committed-path tape serve every
    // lane.
    shared.traces =
        workload::trace::TraceCache::global().acquire(*shared.program);
    tape = std::make_unique<workload::ReplayTape>(
        *shared.program, shared.traces.get(),
        first.warmupInsts + first.measureInsts + kTapeSlack);
    shared.tape = tape.get();

    lanes.resize(group.indices.size());
    for (size_t i = 0; i < group.indices.size(); ++i) {
        Lane &lane = lanes[i];
        lane.origIndex = group.indices[i];
        const RunParams &p = all[lane.origIndex];
        lane.flightCtx = paramsSummary(p);
        fr.setContext(lane.flightCtx.c_str());
        LaneArena &arena = laneArena(i);
        arena.reset();
        try {
            ScopedErrorCapture capture;
            lane.inst = std::make_unique<SimInstance>(p, &shared,
                                                      &arena);
            lane.active = true;
        } catch (const core::ProgressStallError &e) {
            lane.out.stalled = true;
            lane.out.error = e.what();
        } catch (const std::exception &e) {
            lane.out.error = e.what();
        } catch (...) {
            lane.out.error = "unknown exception";
        }
    }
}

void
SweepBatch::drain()
{
    FlightRecorder &fr = flightRecorder();
    const uint64_t quantum = batchQuantum();
    size_t live = 0;
    for (const Lane &lane : lanes)
        live += lane.active ? 1 : 0;

    while (live > 0) {
        for (Lane &lane : lanes) {
            if (!lane.active)
                continue;
            fr.setContext(lane.flightCtx.c_str());
            try {
                ScopedErrorCapture capture;
                if (lane.inst->step(quantum)) {
                    lane.active = false; // done; early retirement
                    --live;
                }
            } catch (const core::ProgressStallError &e) {
                lane.out.stalled = true;
                lane.out.error = e.what();
                lane.active = false;
                --live;
            } catch (const std::exception &e) {
                lane.out.error = e.what();
                lane.active = false;
                --live;
            } catch (...) {
                lane.out.error = "unknown exception";
                lane.active = false;
                --live;
            }
        }
    }
}

std::vector<LaneOutcome>
SweepBatch::finalize()
{
    FlightRecorder &fr = flightRecorder();
    std::vector<LaneOutcome> out;
    out.reserve(lanes.size());
    for (Lane &lane : lanes) {
        if (lane.out.ok() &&
            (lane.inst == nullptr || !lane.inst->done())) {
            lane.out.error = "lane did not complete"; // unreachable
        }
        if (lane.out.ok()) {
            fr.setContext(lane.flightCtx.c_str());
            try {
                ScopedErrorCapture capture;
                lane.out.result = lane.inst->finish();
            } catch (const std::exception &e) {
                lane.out.error = e.what();
            } catch (...) {
                lane.out.error = "unknown exception";
            }
        }
        out.push_back(std::move(lane.out));
        // Lane machines borrow this thread's arena slots; release
        // them now so the next batch may rewind the slabs.
        lane.inst.reset();
    }
    lanes.clear();
    return out;
}

uint64_t
SweepBatch::tapeBytes() const
{
    return tape != nullptr ? tape->tapeBytes() : 0;
}

} // namespace pri::sim
