/**
 * @file
 * Zero-steady-state-allocation gates. This executable replaces the
 * global operator new with a counting one and asserts that, once
 * warm, the simulator's hot loops never touch the heap:
 *
 *  1. the core's cycle loop (gzip, 4-wide Base): no allocation and
 *     no core.scratchGrowths in the measurement window;
 *  2. the read-port arbiter and its stall-replay path: a binding
 *     2-port budget adds no allocation over the unlimited leg;
 *  3. branch recovery (gcc, the branchiest profile): no allocation
 *     while checkpoints are taken and restored through the pool;
 *  4. the traced walker's replay loop: no allocation;
 *  5. SweepBatch::drain(): no allocation that grows with the
 *     measure length (a delta between two lengths, so one-time
 *     lane growth cancels).
 *
 * Each window is a pure delta of the counter, so background
 * allocations outside it (program build, trace compile, gtest
 * bookkeeping) do not count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/core.hh"
#include "sim/batch/sweep_batch.hh"
#include "workload/program.hh"
#include "workload/trace/trace_cache.hh"
#include "workload/walker.hh"

namespace
{

/** Global allocation counter fed by the operator-new overrides. */
std::atomic<uint64_t> g_allocs{0};

/** Sink for measured loops' results, so none is optimized away. */
volatile uint64_t g_sink = 0;

} // namespace

void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace pri
{
namespace
{

constexpr uint64_t kWarmup = 20000;
constexpr uint64_t kMeasure = 80000;

uint64_t
allocs()
{
    return g_allocs.load(std::memory_order_relaxed);
}

/** What one measured window of a core run did. */
struct Window
{
    uint64_t allocs = 0;
    double scratchGrowths = 0;
    double portStalls = 0;
    double ckptsRestored = 0;
};

/** Warm a 4-wide core on @p bench, then measure kMeasure commits. */
Window
measureCore(const char *bench, const rename::RenameConfig &rn,
            unsigned ports = 0)
{
    workload::SyntheticProgram program(
        workload::profileByName(bench), 11);
    auto cfg = core::CoreConfig::fourWide(rn);
    cfg.prfReadPorts = ports;
    StatGroup stats;
    core::OutOfOrderCore cpu(cfg, program, stats);

    cpu.run(kWarmup);
    cpu.beginMeasurement();
    const double g0 = stats.scalarValue("core.scratchGrowths");
    const double s0 = stats.scalarValue("core.prfPortStallOps");
    const double r0 = stats.scalarValue("core.ckptsRestored");
    const uint64_t a0 = allocs();
    cpu.run(kMeasure);
    Window w;
    w.allocs = allocs() - a0;
    w.scratchGrowths = stats.scalarValue("core.scratchGrowths") - g0;
    w.portStalls = stats.scalarValue("core.prfPortStallOps") - s0;
    w.ckptsRestored = stats.scalarValue("core.ckptsRestored") - r0;
    return w;
}

rename::RenameConfig
baseRename()
{
    return rename::RenameConfig::base(
        64, core::CoreConfig::narrowBitsForWidth(4));
}

TEST(AllocGates, CycleLoopSteadyState)
{
    const Window w = measureCore("gzip", baseRename());
    EXPECT_EQ(w.allocs, 0u);
    EXPECT_EQ(w.scratchGrowths, 0.0);
}

TEST(AllocGates, PortArbiterAddsNothing)
{
    // 2 ports bind hard on the 4-wide machine (worst case 2 * width
    // = 8), so the arbiter and the port-stall replay path run every
    // cycle. Both legs commit the same stream, so anything the
    // ported leg adds is allocation in the arbitration path itself.
    const Window unlimited = measureCore("gzip", baseRename());
    const Window ported = measureCore("gzip", baseRename(), 2);
    EXPECT_GT(ported.portStalls, 0.0) << "the budget never bound";
    EXPECT_LE(ported.allocs, unlimited.allocs);
    EXPECT_EQ(ported.scratchGrowths, 0.0);
}

TEST(AllocGates, CheckpointRecoverySteadyState)
{
    const Window w = measureCore("gcc", baseRename());
    EXPECT_GT(w.ckptsRestored, 0.0) << "no branch recovery measured";
    EXPECT_EQ(w.allocs, 0u);
}

TEST(AllocGates, WalkerReplaySteadyState)
{
    workload::SyntheticProgram program(workload::profileByName("gcc"),
                                       11);
    const auto traces =
        workload::trace::TraceCache::global().acquire(program);
    workload::Walker walker(program, traces.get());
    uint64_t sink = 0;
    const auto step = [&] {
        const auto wi = walker.next();
        sink ^= wi.resultValue ^ wi.memAddr;
        if (walker.branchPending())
            walker.steer(wi, wi.taken, wi.actualTarget);
    };

    // Warm up: grow the call stack to its steady depth.
    for (uint64_t i = 0; i < 10 * kMeasure; ++i)
        step();
    const uint64_t a0 = allocs();
    for (uint64_t i = 0; i < 25 * kMeasure; ++i)
        step();
    EXPECT_EQ(allocs() - a0, 0u);
    g_sink = sink; // keep the replay loop observable
}

/** Allocations inside the drains of a fig10-shaped panel (every
 *  scheme, both widths, one workload) at @p measure. */
uint64_t
batchDrainAllocs(uint64_t measure)
{
    std::vector<sim::RunParams> pts;
    for (unsigned width : {4u, 8u}) {
        for (const auto scheme : sim::kAllSchemes) {
            sim::RunParams p;
            p.benchmark = "gcc";
            p.width = width;
            p.scheme = scheme;
            p.warmupInsts = 5000;
            p.measureInsts = measure;
            p.seed = 11;
            pts.push_back(p);
        }
    }
    std::vector<size_t> pending(pts.size());
    for (size_t i = 0; i < pending.size(); ++i)
        pending[i] = i;

    uint64_t n = 0;
    for (const auto &group :
         sim::formBatches(pts, pending, sim::defaultBatchLanes())) {
        sim::SweepBatch batch(pts, group);
        batch.prepare();
        const uint64_t a0 = allocs();
        batch.drain();
        n += allocs() - a0;
        for (const auto &out : batch.finalize())
            EXPECT_TRUE(out.ok()) << out.error;
    }
    return n;
}

TEST(AllocGates, BatchedDrainSteadyState)
{
    EXPECT_EQ(batchDrainAllocs(2 * kMeasure / 4),
              batchDrainAllocs(kMeasure / 4));
}

} // namespace
} // namespace pri
