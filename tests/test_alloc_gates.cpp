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
 *  4. the checkpoint bookkeeping of the other schemes on gcc: the
 *     reference walk (PRI-refcount+ckptcount), the Early Release
 *     sweep (ER) and the lazy copy walk (PRI-refcount+lazy);
 *  5. the rename checkpoint ring, once reserved: filling, wrapping
 *     and growing it to robSize live checkpoints allocates nothing;
 *  6. the traced walker's replay loop: no allocation.
 *
 * A last gate bounds what one core allocates at construction, in
 * bytes and in calls, so no per-cycle structure can buy its
 * zero-allocation steady state with a worst-case reservation again
 * (the event wheel once held 1024 x robSize event slots: 8 MiB per
 * 8-wide core), and no per-checkpoint prefill can come back (one
 * node per checkpoint slot once made 722 calls per 8-wide core).
 *
 * The heap gate: once a core is built, memory freed to the heap
 * stays mapped for the next allocation, so a sweep's set-up does not
 * fault every core back in from the OS (glibc's dynamic trimming
 * did, for whichever cores landed at the heap top).
 *
 * Each window is a pure delta of the counters, so background
 * allocations outside it (program build, trace compile, gtest
 * bookkeeping) do not count. The aligned overloads are counted too.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/core.hh"
#include "workload/program.hh"
#include "workload/trace/trace_cache.hh"
#include "workload/walker.hh"

namespace
{

/** Global allocation and byte counters fed by the operator-new
 *  overrides. */
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = align <= alignof(std::max_align_t)
        ? std::malloc(size)
        : std::aligned_alloc(align, (size + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

/** Sink for measured loops' results, so none is optimized away. */
volatile uint64_t g_sink = 0;

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size, 0);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size, 0);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
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
    return rename::RenameConfig::of(
        rename::Scheme::Base, 64,
        core::CoreConfig::narrowBitsForWidth(4));
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

TEST(AllocGates, CheckpointBookkeepingSteadyState)
{
    const unsigned bits = core::CoreConfig::narrowBitsForWidth(4);
    for (const auto scheme : {rename::Scheme::PriRefcountCkptcount,
                              rename::Scheme::EarlyRelease,
                              rename::Scheme::PriRefcountLazy}) {
        SCOPED_TRACE(rename::schemeName(scheme));
        const Window w = measureCore(
            "gcc", rename::RenameConfig::of(scheme, 64, bits));
        EXPECT_GT(w.ckptsRestored, 0.0) << "no branch recovery measured";
        EXPECT_EQ(w.allocs, 0u);
    }
}

TEST(AllocGates, CheckpointRingReservedUpFront)
{
    // The core reserves one rename checkpoint per ROB entry before
    // renaming starts. Half-fill the ring, retire its oldest quarter,
    // then wrap and grow it to that bound: no step may allocate, not
    // even a new high-water mark reached while wrapped.
    const auto cfg = core::CoreConfig::fourWide(
        rename::RenameConfig::of(
            rename::Scheme::PriRefcountCkptcount, 64,
            core::CoreConfig::narrowBitsForWidth(4)));
    StatGroup stats;
    rename::RenameUnit rn(cfg.rename, stats);
    rn.reserveCheckpoints(cfg.robSize);
    std::vector<rename::CkptId> ids;
    ids.reserve(2 * cfg.robSize);

    const uint64_t a0 = allocs();
    while (rn.liveCheckpoints() < cfg.robSize / 2)
        ids.push_back(rn.createCheckpoint());
    for (size_t i = 0; i < cfg.robSize / 4; ++i) {
        rn.resolveCheckpoint(ids[i]);
        rn.releaseCheckpoint(ids[i]);
    }
    while (rn.liveCheckpoints() < cfg.robSize)
        ids.push_back(rn.createCheckpoint());
    EXPECT_EQ(allocs() - a0, 0u);
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

TEST(AllocGates, CoreConstructionFootprint)
{
    // The 8-wide machine has the widest scheduler; the traces are
    // acquired first so only the core's own state is counted.
    workload::SyntheticProgram program(workload::profileByName("gcc"),
                                       11);
    const auto traces =
        workload::trace::TraceCache::global().acquire(program);
    const auto cfg = core::CoreConfig::eightWide(
        rename::RenameConfig::of(
            rename::Scheme::Base, 64,
            core::CoreConfig::narrowBitsForWidth(8)));
    StatGroup stats;
    const uint64_t a0 = allocs();
    const uint64_t b0 = g_bytes.load(std::memory_order_relaxed);
    core::OutOfOrderCore cpu(cfg, program, stats, traces);
    const uint64_t calls = allocs() - a0;
    const uint64_t bytes = g_bytes.load(std::memory_order_relaxed) - b0;
    // About 1.2 MiB today (caches, predictor, ROB); the bound leaves
    // headroom for growth but not for a reservation per wheel bucket.
    EXPECT_LT(bytes, uint64_t{4} << 20)
        << "an 8-wide core allocates " << bytes << " bytes";
    // About 180 calls today: one per structure, none per slot.
    EXPECT_LE(calls, 256u)
        << "an 8-wide core makes " << calls << " allocations";
}

/** Minor page faults this process has taken so far. */
long
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

TEST(AllocGates, FreedHeapStaysMapped)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime replaces malloc";
#else
    {
        workload::SyntheticProgram program(
            workload::profileByName("gzip"), 11);
        StatGroup stats;
        core::OutOfOrderCore cpu(core::CoreConfig::fourWide(baseRename()),
                                 program, stats);
    }
    // A block several cores large, touched page by page, freed, then
    // allocated and touched again: the second pass must find it still
    // mapped. Volatile stores keep the allocations real.
    constexpr size_t kBlock = size_t{8} << 20;
    const auto touchBlock = [] {
        auto *p = static_cast<volatile char *>(std::malloc(kBlock));
        if (p == nullptr)
            throw std::bad_alloc();
        for (size_t i = 0; i < kBlock; i += 4096)
            p[i] = 1;
        return p;
    };
    std::free(const_cast<char *>(touchBlock()));
    const long f0 = minorFaults();
    volatile char *again = touchBlock();
    const long faults = minorFaults() - f0;
    std::free(const_cast<char *>(again));
    EXPECT_LT(faults, 64) << "the freed block was returned to the OS";
#endif
}

} // namespace
} // namespace pri
