/**
 * @file
 * Tests for the trace-compiled front end (DESIGN.md §13): compiled
 * MicroOp records must round-trip every StaticInst field, the traced
 * walker must emit a byte-identical WInst stream to the legacy decode
 * path (including across wrong-path detours and mid-block restores),
 * and the process-global TraceCache must share one compilation across
 * all walkers of the same program and one program across all
 * simulations of the same (benchmark, seed), also under racing
 * threads (hence the determinism label). A runner sweep builds each
 * (benchmark, seed) once and drops it after its last point, also when
 * that point fails. Also holds the checkpointInto stack-reuse
 * regression test: once a pooled checkpoint slot has seen the deepest
 * call stack, captures must never reallocate.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/sim_instance.hh"
#include "workload/profile.hh"
#include "workload/program.hh"
#include "workload/trace/micro_op.hh"
#include "workload/trace/trace_cache.hh"
#include "workload/walker.hh"

namespace pri::workload
{
namespace
{

std::shared_ptr<const trace::ProgramTraces>
acquire(const SyntheticProgram &prog)
{
    return trace::TraceCache::global().acquire(prog);
}

/** Walk n instructions down the correct path. */
std::vector<WInst>
walkCorrect(Walker &w, size_t n)
{
    std::vector<WInst> out;
    while (out.size() < n) {
        WInst wi = w.next();
        if (wi.isBranch())
            w.steer(wi, wi.taken, wi.actualTarget);
        out.push_back(wi);
    }
    return out;
}

void
expectSameInst(const WInst &a, const WInst &b, size_t i)
{
    EXPECT_EQ(a.seq, b.seq) << "at " << i;
    EXPECT_EQ(a.staticId, b.staticId) << "at " << i;
    EXPECT_EQ(a.pc, b.pc) << "at " << i;
    EXPECT_EQ(a.cls, b.cls) << "at " << i;
    EXPECT_EQ(a.dst.flat(), b.dst.flat()) << "at " << i;
    EXPECT_EQ(a.src1.flat(), b.src1.flat()) << "at " << i;
    EXPECT_EQ(a.src2.flat(), b.src2.flat()) << "at " << i;
    EXPECT_EQ(a.resultValue, b.resultValue) << "at " << i;
    EXPECT_EQ(a.memAddr, b.memAddr) << "at " << i;
    EXPECT_EQ(a.taken, b.taken) << "at " << i;
    EXPECT_EQ(a.actualTarget, b.actualTarget) << "at " << i;
    EXPECT_EQ(a.fallThrough, b.fallThrough) << "at " << i;
    EXPECT_EQ(a.isCall, b.isCall) << "at " << i;
    EXPECT_EQ(a.isReturn, b.isReturn) << "at " << i;
    EXPECT_EQ(a.isUncond, b.isUncond) << "at " << i;
}

/** The OpKind the compiler must assign to @p si. */
trace::OpKind
expectedKind(const StaticInst &si)
{
    using trace::OpKind;
    if (si.cls == isa::OpClass::Branch) {
        if (si.isReturn)
            return OpKind::BranchRet;
        return si.isUncond ? OpKind::BranchJmp : OpKind::BranchCond;
    }
    if (isa::isStore(si.cls))
        return OpKind::Store;
    if (isa::isLoad(si.cls)) {
        return si.dst.cls == isa::RegClass::Fp ? OpKind::LoadFp
                                               : OpKind::LoadInt;
    }
    if (!si.dst.valid())
        return OpKind::NoDst;
    if (si.isDeadHint)
        return OpKind::ZeroDst;
    return si.dst.cls == isa::RegClass::Fp ? OpKind::FpDst
                                           : OpKind::IntDst;
}

TEST(TraceCompiler, MicroOpsRoundTripEveryStaticInstField)
{
    // gcc exercises the int/branch/memory kinds; art the FP kinds.
    for (const char *name : {"gcc", "art"}) {
        SyntheticProgram prog(profileByName(name), 11);
        trace::ProgramTraces traces(prog);
        ASSERT_EQ(traces.numBlocks(), prog.numBlocks());
        ASSERT_EQ(traces.numOps(), prog.numStaticInsts());

        for (uint32_t b = 0; b < prog.numBlocks(); ++b) {
            const auto &blk = prog.block(b);
            const trace::MicroOp *ops = traces.blockOps(b);
            EXPECT_EQ(traces.startPc(b), blk.startPc);
            for (size_t i = 0; i < blk.insts.size(); ++i) {
                const auto &si = blk.insts[i];
                const auto &op = ops[i];
                EXPECT_EQ(op.pc, si.pc);
                EXPECT_EQ(op.staticId, si.id);
                EXPECT_EQ(op.cls, si.cls);
                EXPECT_EQ(op.dst.flat(), si.dst.flat());
                EXPECT_EQ(op.src1.flat(), si.src1.flat());
                EXPECT_EQ(op.src2.flat(), si.src2.flat());
                EXPECT_EQ(op.widthClass, si.widthClass);
                EXPECT_EQ(op.kind, expectedKind(si));
                EXPECT_EQ((op.flags & trace::kFlagCall) != 0,
                          si.isCall);
                EXPECT_EQ((op.flags & trace::kFlagReturn) != 0,
                          si.isReturn);
                EXPECT_EQ((op.flags & trace::kFlagUncond) != 0,
                          si.isUncond);
                EXPECT_EQ((op.flags & trace::kFlagLast) != 0,
                          i + 1 == blk.insts.size());
                EXPECT_EQ(op.fallthroughBlock, blk.fallthrough);
                if (si.cls == isa::OpClass::Branch &&
                    !si.isReturn && si.takenBlock != kNoBlock) {
                    EXPECT_EQ(op.takenBlock, si.takenBlock);
                    EXPECT_EQ(op.takenTargetPc,
                              prog.block(si.takenBlock).startPc);
                }
                if (si.memStream >= 0) {
                    EXPECT_EQ(op.stream,
                              static_cast<uint16_t>(si.memStream));
                }
            }
        }
    }
}

TEST(TraceCompiler, EveryOpKindIsExercised)
{
    // The dispatch switch has ten arms; the round-trip test above is
    // vacuous for any arm the programs never produce. ZeroDst needs a
    // dead-hint profile (all stock profiles have deadHintFrac == 0);
    // NoDst is the defensive arm — the generator always gives
    // non-store, non-branch ops a destination — so it is exempt.
    bool seen[10] = {};
    auto scan = [&](const BenchmarkProfile &prof) {
        SyntheticProgram prog(prof, 11);
        trace::ProgramTraces traces(prog);
        for (uint32_t b = 0; b < prog.numBlocks(); ++b) {
            const auto n = prog.block(b).insts.size();
            for (size_t i = 0; i < n; ++i) {
                seen[static_cast<size_t>(
                    traces.blockOps(b)[i].kind)] = true;
            }
        }
    };
    for (const char *name : {"gcc", "art", "swim", "mcf"})
        scan(profileByName(name));
    BenchmarkProfile hinted = profileByName("crafty");
    hinted.deadHintFrac = 0.3;
    scan(hinted);

    for (size_t k = 0; k < std::size(seen); ++k) {
        if (k == static_cast<size_t>(trace::OpKind::NoDst))
            continue;
        EXPECT_TRUE(seen[k]) << "OpKind " << k << " never compiled";
    }
    EXPECT_TRUE(seen[static_cast<size_t>(trace::OpKind::ZeroDst)]);
}

TEST(TracedWalker, StreamIsByteIdenticalToLegacyDecode)
{
    for (const char *name : {"gzip", "gcc", "art", "mcf", "swim"}) {
        for (uint64_t seed : {3u, 11u}) {
            SCOPED_TRACE(std::string(name) + " seed " +
                         std::to_string(seed));
            SyntheticProgram prog(profileByName(name), seed);
            const auto traces = acquire(prog);

            Walker legacy(prog);
            Walker traced(prog, traces.get());
            ASSERT_FALSE(legacy.traced());
            ASSERT_TRUE(traced.traced());

            const auto wl = walkCorrect(legacy, 4000);
            const auto wt = walkCorrect(traced, 4000);
            for (size_t i = 0; i < wl.size(); ++i)
                expectSameInst(wt[i], wl[i], i);
        }
    }

    // Dead-value hints replay identically too (ZeroDst kind).
    BenchmarkProfile hinted = profileByName("crafty");
    hinted.deadHintFrac = 0.3;
    SyntheticProgram prog(hinted, 11);
    const auto traces = acquire(prog);
    Walker legacy(prog);
    Walker traced(prog, traces.get());
    const auto wl = walkCorrect(legacy, 4000);
    const auto wt = walkCorrect(traced, 4000);
    for (size_t i = 0; i < wl.size(); ++i)
        expectSameInst(wt[i], wl[i], i);
}

TEST(TracedWalker, WrongPathDetoursAndRestoresMatchLegacy)
{
    // Same shape as Walker.WrongPathDetourLeavesCorrectPathUnchanged,
    // but replayed: every conditional gets a wrong-path detour whose
    // restore lands the traced walker back mid-stream — the detour
    // itself ends mid-block, so restore() must re-point `cur` at an
    // interior MicroOp, not just block starts.
    SyntheticProgram prog(profileByName("gcc"), 9);
    const auto traces = acquire(prog);

    // Both walkers take identical detours, so even the monotonic
    // (never rolled back) seq numbers must agree instruction for
    // instruction.
    auto walkWithDetours = [](Walker &w) {
        std::vector<WInst> got;
        while (got.size() < 3000) {
            WInst wi = w.next();
            if (wi.isBranch()) {
                if (!wi.isUncond) {
                    const auto ckpt = w.checkpoint();
                    const bool wrong = !wi.taken;
                    w.steer(wi, wrong,
                            wrong ? wi.actualTarget
                                  : wi.fallThrough);
                    for (int k = 0; k < 10; ++k) {
                        WInst junk = w.next();
                        if (junk.isBranch()) {
                            w.steer(junk, junk.taken,
                                    junk.actualTarget);
                        }
                    }
                    w.restore(ckpt);
                    // The walker must resume exactly at the branch.
                    EXPECT_EQ(w.currentPc(), wi.pc);
                }
                w.steer(wi, wi.taken, wi.actualTarget);
            }
            got.push_back(wi);
        }
        return got;
    };

    Walker legacy(prog);
    Walker traced(prog, traces.get());
    const auto expected = walkWithDetours(legacy);
    const auto got = walkWithDetours(traced);

    for (size_t i = 0; i < expected.size(); ++i)
        expectSameInst(got[i], expected[i], i);
}

TEST(TraceCacheTest, SharesOneCompilationAcrossWalkers)
{
    auto &cache = trace::TraceCache::global();
    cache.reset();

    SyntheticProgram prog(profileByName("gcc"), 7);
    const auto a = cache.acquire(prog);
    const auto b = cache.acquire(prog);
    EXPECT_EQ(a.get(), b.get()); // one compilation, shared

    auto s = cache.stats();
    EXPECT_EQ(s.programsCompiled, 1u);
    EXPECT_EQ(s.programsShared, 1u);
    EXPECT_EQ(s.blocksCompiled, prog.numBlocks());
    EXPECT_EQ(s.microOps, prog.numStaticInsts());
    EXPECT_GT(s.traceBytes, 0u);

    // A different seed is a different program: miss, new entry.
    SyntheticProgram other(profileByName("gcc"), 8);
    const auto c = cache.acquire(other);
    EXPECT_NE(a.get(), c.get());
    s = cache.stats();
    EXPECT_EQ(s.programsCompiled, 2u);
    EXPECT_EQ(s.programsShared, 1u);

    // Two walkers on the shared compilation replay independently.
    Walker w1(prog, a.get());
    Walker w2(prog, b.get());
    const auto i1 = walkCorrect(w1, 2000);
    const auto i2 = walkCorrect(w2, 2000);
    for (size_t i = 0; i < i1.size(); ++i)
        expectSameInst(i1[i], i2[i], i);

    cache.reset();
}

TEST(TraceCacheTest, FingerprintIsContentSensitive)
{
    SyntheticProgram a1(profileByName("gcc"), 7);
    SyntheticProgram a2(profileByName("gcc"), 7);
    SyntheticProgram b(profileByName("gcc"), 8);
    SyntheticProgram c(profileByName("gzip"), 7);

    EXPECT_EQ(trace::programFingerprint(a1),
              trace::programFingerprint(a2));
    EXPECT_NE(trace::programFingerprint(a1),
              trace::programFingerprint(b));
    EXPECT_NE(trace::programFingerprint(a1),
              trace::programFingerprint(c));

    trace::ProgramTraces traces(a1);
    EXPECT_EQ(traces.fingerprint(), trace::programFingerprint(a1));
}

TEST(WorkloadCache, SimInstancesOfOneBenchmarkSeedShareOneWorkload)
{
    auto &cache = trace::TraceCache::global();
    cache.reset();

    sim::RunParams p;
    p.benchmark = "gcc";
    p.seed = 7;
    sim::RunParams q = p;
    q.width = 8;
    q.scheme = sim::Scheme::PriRefcountCkptcount;
    const sim::SimInstance a(p);
    const sim::SimInstance b(q);
    EXPECT_EQ(a.workload().program.get(), b.workload().program.get());
    EXPECT_EQ(a.workload().traces.get(), b.workload().traces.get());
    EXPECT_EQ(a.workload().traces->fingerprint(),
              a.workload().program->fingerprint());

    const auto s = cache.stats();
    EXPECT_EQ(s.workloadsBuilt, 1u);
    EXPECT_EQ(s.workloadsShared, 1u);
    EXPECT_EQ(s.programsCompiled, 1u);
    cache.reset();
}

TEST(WorkloadCache, OtherSeedOrBenchmarkGetsItsOwn)
{
    auto &cache = trace::TraceCache::global();
    cache.reset();

    const auto gcc7 = cache.workload("gcc", 7);
    const auto gcc8 = cache.workload("gcc", 8);
    const auto gzip7 = cache.workload("gzip", 7);
    EXPECT_NE(gcc7.program.get(), gcc8.program.get());
    EXPECT_NE(gcc7.traces.get(), gcc8.traces.get());
    EXPECT_NE(gcc7.program.get(), gzip7.program.get());
    EXPECT_NE(gcc7.traces.get(), gzip7.traces.get());
    EXPECT_EQ(gcc8.program->seed(), 8u);
    EXPECT_EQ(gzip7.program->profile().name, "gzip");
    EXPECT_EQ(cache.stats().workloadsBuilt, 3u);
    EXPECT_EQ(cache.stats().programsCompiled, 3u);

    // A separately built copy of a cached program still finds the
    // cached traces: acquire() stays keyed by content.
    SyntheticProgram own(profileByName("gcc"), 7);
    EXPECT_EQ(cache.acquire(own).get(), gcc7.traces.get());

    EXPECT_THROW(cache.workload("no-such-benchmark", 7),
                 std::invalid_argument);
    EXPECT_EQ(cache.stats().workloadsBuilt, 3u);
    cache.reset();
}

TEST(WorkloadCache, RacingThreadsBuildOnce)
{
    auto &cache = trace::TraceCache::global();
    cache.reset();

    constexpr size_t kThreads = 4;
    std::vector<trace::Workload> got(kThreads);
    std::atomic<size_t> ready{0};
    std::vector<std::thread> pool;
    for (size_t t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            got[t] = cache.workload("mcf", 5);
        });
    }
    for (auto &th : pool)
        th.join();

    for (size_t t = 1; t < kThreads; ++t) {
        EXPECT_EQ(got[t].program.get(), got[0].program.get());
        EXPECT_EQ(got[t].traces.get(), got[0].traces.get());
    }
    const auto s = cache.stats();
    EXPECT_EQ(s.workloadsBuilt, 1u);
    EXPECT_EQ(s.workloadsShared, kThreads - 1);
    EXPECT_EQ(s.programsCompiled, 1u);
    cache.reset();
}

TEST(WorkloadCache, ResetDropsProgramsAndTraces)
{
    auto &cache = trace::TraceCache::global();
    cache.reset();

    auto held = cache.workload("gzip", 3);
    std::weak_ptr<const SyntheticProgram> program = held.program;
    std::weak_ptr<const trace::ProgramTraces> traces = held.traces;

    // A live holder keeps its workload through a reset, and the
    // next request builds a fresh one.
    cache.reset();
    EXPECT_FALSE(program.expired());
    EXPECT_EQ(held.program->seed(), 3u);
    auto rebuilt = cache.workload("gzip", 3);
    EXPECT_NE(rebuilt.program.get(), held.program.get());
    EXPECT_EQ(cache.stats().workloadsBuilt, 1u);
    held = {};
    EXPECT_TRUE(program.expired());
    EXPECT_TRUE(traces.expired());

    // Without an outside holder, reset frees both.
    std::weak_ptr<const SyntheticProgram> program2 = rebuilt.program;
    std::weak_ptr<const trace::ProgramTraces> traces2 = rebuilt.traces;
    rebuilt = {};
    EXPECT_FALSE(program2.expired()); // the cache still holds them
    EXPECT_FALSE(traces2.expired());
    cache.reset();
    EXPECT_TRUE(program2.expired());
    EXPECT_TRUE(traces2.expired());
    EXPECT_EQ(cache.stats().workloadsBuilt, 0u);
}

TEST(WorkloadCache, ReleaseDropsOneKey)
{
    auto &cache = trace::TraceCache::global();
    cache.reset();

    auto held = cache.workload("gcc", 7);
    std::weak_ptr<const SyntheticProgram> program = held.program;
    std::weak_ptr<const trace::ProgramTraces> traces = held.traces;
    const auto other = cache.workload("gcc", 8);
    const uint64_t other_bytes = other.traces->traceBytes();

    // A holder keeps its workload through a release; the cache lets
    // go of it and of its traces, and the other key stays cached.
    cache.release("gcc", 7);
    cache.release("gcc", 7); // absent now: no-op
    cache.release("no-such-benchmark", 7);
    EXPECT_FALSE(program.expired());
    EXPECT_EQ(cache.stats().traceBytes, other_bytes);
    held = {};
    EXPECT_TRUE(program.expired());
    EXPECT_TRUE(traces.expired());
    EXPECT_EQ(cache.workload("gcc", 8).program.get(),
              other.program.get());
    EXPECT_EQ(cache.stats().workloadsBuilt, 2u);

    // The next request builds afresh.
    EXPECT_NE(cache.workload("gcc", 7).program, nullptr);
    EXPECT_EQ(cache.stats().workloadsBuilt, 3u);
    cache.reset();
}

/** A short runner point on (@p bench, @p seed). */
sim::RunParams
sweepPoint(const char *bench, uint64_t seed, sim::Scheme scheme)
{
    sim::RunParams p;
    p.benchmark = bench;
    p.seed = seed;
    p.scheme = scheme;
    p.warmupInsts = 1000;
    p.measureInsts = 4000;
    return p;
}

/** @p per_key points on each of three (benchmark, seed) keys,
 *  interleaved so every key has points in flight at once. */
std::vector<sim::RunParams>
interleavedBatch(size_t per_key)
{
    static const sim::Scheme kSchemes[] = {
        sim::Scheme::Base, sim::Scheme::PriRefcountCkptcount,
        sim::Scheme::EarlyRelease, sim::Scheme::InfinitePregs};
    std::vector<sim::RunParams> batch;
    for (size_t n = 0; n < per_key; ++n) {
        const auto scheme = kSchemes[n % std::size(kSchemes)];
        batch.push_back(sweepPoint("gzip", 7, scheme));
        batch.push_back(sweepPoint("mcf", 7, scheme));
        batch.push_back(sweepPoint("gzip", 8, scheme));
    }
    return batch;
}

/** Weak handles on one cached workload. */
struct WeakWorkload
{
    std::weak_ptr<const SyntheticProgram> program;
    std::weak_ptr<const trace::ProgramTraces> traces;
};

WeakWorkload
watch(const char *bench, uint64_t seed)
{
    const auto w = trace::TraceCache::global().workload(bench, seed);
    return {w.program, w.traces};
}

TEST(SweepLifetime, WorkloadsDieAfterTheSweepsLastPoint)
{
    auto &cache = trace::TraceCache::global();
    cache.reset();
    const WeakWorkload watched[] = {
        watch("gzip", 7), watch("mcf", 7), watch("gzip", 8)};

    const auto outcomes =
        sim::SimulationRunner(4).runCaptured(interleavedBatch(3));
    for (const auto &o : outcomes)
        ASSERT_TRUE(o.ok()) << o.error;
    for (const auto &w : watched) {
        EXPECT_TRUE(w.program.expired());
        EXPECT_TRUE(w.traces.expired());
    }
    const auto s = cache.stats();
    EXPECT_EQ(s.traceBytes, 0u);
    EXPECT_EQ(s.workloadsBuilt, 3u); // the watch() builds, then hits
    cache.reset();
}

TEST(SweepLifetime, InterleavedKeysBuildOncePerSweep)
{
    // One worker makes the order exact: a key released before its
    // last point would be rebuilt for it. Four race the keys.
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        auto &cache = trace::TraceCache::global();
        cache.reset();
        const auto batch = interleavedBatch(4);
        const auto outcomes =
            sim::SimulationRunner(jobs).runCaptured(batch);
        for (const auto &o : outcomes)
            ASSERT_TRUE(o.ok()) << o.error;
        const auto s = cache.stats();
        EXPECT_EQ(s.workloadsBuilt, 3u);
        EXPECT_EQ(s.workloadsShared, batch.size() - 3);
        EXPECT_EQ(s.programsCompiled, 3u);
        EXPECT_EQ(s.traceBytes, 0u);
        cache.reset();
    }
}

TEST(SweepLifetime, FailedAndStalledKeysAreReleased)
{
    auto &cache = trace::TraceCache::global();
    cache.reset();
    const WeakWorkload panicked = watch("gzip", 7);
    const WeakWorkload stalled = watch("mcf", 5);

    // Each key's only point fails after building its machine: a
    // golden divergence panics, a wedged scheduler stalls.
    auto bad = sweepPoint("gzip", 7, sim::Scheme::Base);
    bad.checkGolden = true;
    bad.injectFault = core::InjectedFault::CommitWrongPath;
    auto wedged = sweepPoint("mcf", 5, sim::Scheme::Base);
    wedged.injectFault = core::InjectedFault::WedgeScheduler;
    wedged.watchdogCycles = 30000;
    wedged.measureInsts = 50000;

    const auto outcomes =
        sim::SimulationRunner(2).runCaptured({bad, wedged});
    ASSERT_FALSE(outcomes[0].ok());
    EXPECT_FALSE(outcomes[0].stalled);
    ASSERT_FALSE(outcomes[1].ok());
    EXPECT_TRUE(outcomes[1].stalled);
    for (const auto &w : {panicked, stalled}) {
        EXPECT_TRUE(w.program.expired());
        EXPECT_TRUE(w.traces.expired());
    }
    EXPECT_EQ(cache.stats().traceBytes, 0u);
    cache.reset();
}

TEST(SweepLifetime, SecondSweepRebuildsIdentically)
{
    auto &cache = trace::TraceCache::global();
    cache.reset();
    const auto batch = interleavedBatch(2);
    sim::SimulationRunner runner(4);
    const auto first = runner.run(batch);
    EXPECT_EQ(cache.stats().workloadsBuilt, 3u);
    const auto second = runner.run(batch);
    EXPECT_EQ(cache.stats().workloadsBuilt, 6u);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].cycles, second[i].cycles) << i;
        EXPECT_EQ(first[i].archSig, second[i].archSig) << i;
        EXPECT_EQ(first[i].report, second[i].report) << i;
    }
    cache.reset();
}

TEST(SweepLifetime, JournalHitsHoldNothing)
{
    const std::string path =
        testing::TempDir() + "pri_test_journal_lifetime";
    std::remove(path.c_str());
    const auto batch = interleavedBatch(2);
    auto &cache = trace::TraceCache::global();
    {
        sim::SweepJournal journal(path);
        sim::SimulationRunner runner(2);
        runner.setJournal(&journal);
        runner.run(batch);
    }

    cache.reset();
    sim::SweepJournal journal(path);
    sim::SimulationRunner runner(2);
    runner.setJournal(&journal);
    const auto outcomes = runner.runCaptured(batch);
    for (const auto &o : outcomes) {
        ASSERT_TRUE(o.ok()) << o.error;
        EXPECT_TRUE(o.fromJournal);
    }
    const auto s = cache.stats();
    EXPECT_EQ(s.workloadsBuilt, 0u);
    EXPECT_EQ(s.workloadsShared, 0u);
    EXPECT_EQ(s.traceBytes, 0u);
    std::remove(path.c_str());
}

/**
 * Regression: checkpointInto must reuse the caller's stack storage.
 * A pooled checkpoint slot grows once to the deepest call stack the
 * walker ever captures into it and never reallocates again — if this
 * breaks, every branch goes back to allocating and the pooled
 * front-end's zero-alloc guarantee silently dies.
 */
TEST(TracedWalker, CheckpointIntoReusesStackStorage)
{
    SyntheticProgram prog(profileByName("gcc"), 13);
    const auto traces = acquire(prog);

    // Pass 1: find the deepest stack a capture will ever hold.
    size_t max_depth = 0;
    {
        Walker scout(prog, traces.get());
        WalkerCkpt probe;
        for (int i = 0; i < 20000; ++i) {
            WInst wi = scout.next();
            if (wi.isBranch()) {
                scout.checkpointInto(probe);
                max_depth = std::max(max_depth, probe.stack.size());
                scout.steer(wi, wi.taken, wi.actualTarget);
            }
        }
    }

    // Pass 2 (same program, same seed, so the same depth profile):
    // pre-size the slot like the pool does after its first deepest
    // capture, then demand storage stability for every later one.
    for (const bool traced : {false, true}) {
        Walker w(prog, traced ? traces.get() : nullptr);
        WalkerCkpt slot;
        slot.stack.reserve(max_depth);
        const ProgLoc *stable_data = slot.stack.data();
        const size_t stable_cap = slot.stack.capacity();
        for (int i = 0; i < 20000; ++i) {
            WInst wi = w.next();
            if (wi.isBranch()) {
                w.checkpointInto(slot);
                EXPECT_EQ(slot.stack.data(), stable_data)
                    << (traced ? "traced" : "legacy")
                    << " capture reallocated at inst " << i;
                EXPECT_EQ(slot.stack.capacity(), stable_cap);
                w.steer(wi, wi.taken, wi.actualTarget);
            }
        }
    }
}

} // namespace
} // namespace pri::workload
