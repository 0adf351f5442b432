/**
 * @file
 * Tests for batched SoA sweep execution (sim/batch/sweep_batch.hh):
 * batch formation by workload fingerprint, full-report byte
 * equality between batched and serial execution across schemes,
 * widths, and seeds, early lane retirement, straggler lanes, and
 * journal interaction (hits are excluded before batches form).
 *
 * The CMake registration runs this binary twice: once with the
 * default (coarse) batch quantum and once with PRI_BATCH_QUANTUM
 * forced small, so fine-grained lane rotation — including stragglers
 * interleaved mid-phase — gets the same equality coverage.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/core.hh"
#include "sim/batch/sweep_batch.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"

namespace pri::sim
{
namespace
{

/** A grid that exercises every batching-relevant axis: two
 *  workloads, two seeds, both widths, and a scheme panel from Base
 *  to InfinitePregs. All points of one (benchmark, seed) share a
 *  fingerprint and may share a batch. */
std::vector<RunParams>
schemeGrid()
{
    std::vector<RunParams> grid;
    for (const char *bench : {"gzip", "equake"}) {
        for (uint64_t seed : {7u, 8u}) {
            for (unsigned width : {4u, 8u}) {
                for (auto scheme :
                     {Scheme::Base, Scheme::EarlyRelease,
                      Scheme::PriRefcountCkptcount,
                      Scheme::PriPlusEr, Scheme::InfinitePregs}) {
                    RunParams p;
                    p.benchmark = bench;
                    p.seed = seed;
                    p.width = width;
                    p.scheme = scheme;
                    p.warmupInsts = 1500;
                    p.measureInsts = 6000;
                    grid.push_back(p);
                }
            }
        }
    }
    return grid;
}

std::vector<RunResult>
serialReference(const std::vector<RunParams> &grid)
{
    std::vector<RunResult> ref;
    ref.reserve(grid.size());
    for (const auto &p : grid)
        ref.push_back(simulate(p));
    return ref;
}

RunParams
point(const char *bench, uint64_t seed, Scheme scheme,
      unsigned width = 4)
{
    RunParams p;
    p.benchmark = bench;
    p.seed = seed;
    p.scheme = scheme;
    p.width = width;
    p.warmupInsts = 1500;
    p.measureInsts = 6000;
    return p;
}

std::vector<size_t>
allIndices(size_t n)
{
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = i;
    return idx;
}

TEST(Batchable, FaultInjectionPointsAreNot)
{
    RunParams p = point("gzip", 7, Scheme::Base);
    EXPECT_TRUE(batchable(p));

    RunParams fault = p;
    fault.injectFault = core::InjectedFault::WedgeScheduler;
    EXPECT_FALSE(batchable(fault));

    RunParams skipFree = p;
    skipFree.injectFreeWithoutInline = true;
    EXPECT_FALSE(batchable(skipFree));

    RunParams transient = p;
    transient.injectTransientFails = 2;
    EXPECT_FALSE(batchable(transient));
}

/** Points group by (benchmark, seed, warmup, measure), preserve
 *  first-seen-key order, and split when the lane cap overflows. */
TEST(FormBatches, GroupsByFingerprintAndLaneCap)
{
    std::vector<RunParams> pts;
    // Six gzip/7 points interleaved with two equake/7 and one
    // gzip/9; one gzip/7 point with a different warmup must not
    // share the gzip/7 group.
    for (int i = 0; i < 3; ++i) {
        pts.push_back(point("gzip", 7, Scheme::Base));
        pts.push_back(point("equake", 7, Scheme::Base));
        pts.push_back(point("gzip", 7, Scheme::PriPlusEr));
    }
    pts.push_back(point("gzip", 9, Scheme::Base));
    RunParams warm = point("gzip", 7, Scheme::Base);
    warm.warmupInsts = 999;
    pts.push_back(warm);

    const auto groups = formBatches(pts, allIndices(pts.size()), 4);
    ASSERT_EQ(groups.size(), 5u);
    // First-seen order: gzip/7 (4 lanes), equake/7 (3), gzip/7
    // overflow (2), gzip/9 (1), gzip/7-warm999 (1).
    EXPECT_EQ(groups[0].indices,
              (std::vector<size_t>{0, 2, 3, 5}));
    EXPECT_EQ(groups[1].indices, (std::vector<size_t>{1, 4, 7}));
    EXPECT_EQ(groups[2].indices, (std::vector<size_t>{6, 8}));
    EXPECT_EQ(groups[3].indices, (std::vector<size_t>{9}));
    EXPECT_EQ(groups[4].indices, (std::vector<size_t>{10}));
}

TEST(FormBatches, UnbatchablePointsBecomeSingletons)
{
    std::vector<RunParams> pts;
    pts.push_back(point("gzip", 7, Scheme::Base));
    RunParams fault = point("gzip", 7, Scheme::EarlyRelease);
    fault.injectFault = core::InjectedFault::StaleWalkerGidx;
    pts.push_back(fault);
    pts.push_back(point("gzip", 7, Scheme::PriPlusEr));

    const auto groups = formBatches(pts, allIndices(pts.size()), 8);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].indices, (std::vector<size_t>{0, 2}));
    EXPECT_EQ(groups[1].indices, (std::vector<size_t>{1}));
}

TEST(FormBatches, LaneCountOneIsAllSingletons)
{
    std::vector<RunParams> pts(4, point("gzip", 7, Scheme::Base));
    const auto groups = formBatches(pts, allIndices(pts.size()), 1);
    ASSERT_EQ(groups.size(), 4u);
    for (size_t i = 0; i < groups.size(); ++i)
        EXPECT_EQ(groups[i].indices, (std::vector<size_t>{i}));
}

TEST(FormBatches, OnlyPendingIndicesAreGrouped)
{
    std::vector<RunParams> pts(5, point("gzip", 7, Scheme::Base));
    const auto groups = formBatches(pts, {1, 3}, 8);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].indices, (std::vector<size_t>{1, 3}));
}

/**
 * The core acceptance property: batched execution is byte-identical
 * to serial — full report equality, every scheme, both widths, both
 * seeds, at several lane counts and worker counts.
 */
TEST(SweepBatchEquality, FullReportAcrossSchemesWidthsSeeds)
{
    const auto grid = schemeGrid();
    const auto ref = serialReference(grid);

    struct Cfg
    {
        unsigned jobs, lanes;
    };
    for (const Cfg cfg : {Cfg{1, 16}, Cfg{1, 3}, Cfg{4, 16}}) {
        SimulationRunner runner(cfg.jobs);
        runner.setBatchLanes(cfg.lanes);
        const auto out = runner.runCaptured(grid);
        ASSERT_EQ(out.size(), grid.size());
        for (size_t i = 0; i < grid.size(); ++i) {
            ASSERT_TRUE(out[i].ok())
                << "jobs " << cfg.jobs << " lanes " << cfg.lanes
                << ": " << out[i].error;
            EXPECT_EQ(out[i].result.report, ref[i].report)
                << "jobs " << cfg.jobs << " lanes " << cfg.lanes
                << " point " << i << " ("
                << paramsSummary(grid[i]) << ")";
            EXPECT_EQ(out[i].result.ipc, ref[i].ipc);
            EXPECT_EQ(out[i].result.cycles, ref[i].cycles);
        }
    }
}

/** Auto lane selection (--batch 0) also matches serial. */
TEST(SweepBatchEquality, AutoLaneCountMatchesSerial)
{
    auto grid = schemeGrid();
    grid.resize(10);
    const auto ref = serialReference(grid);

    SimulationRunner runner(1);
    runner.setBatchLanes(0);
    const auto out = runner.runCaptured(grid);
    for (size_t i = 0; i < grid.size(); ++i) {
        ASSERT_TRUE(out[i].ok()) << out[i].error;
        EXPECT_EQ(out[i].result.report, ref[i].report);
    }
}

/**
 * A lane that dies mid-drain retires from the rotation early and
 * does not perturb its siblings: a cycle-budget stall in one lane,
 * every other lane byte-identical to serial.
 */
TEST(SweepBatch, EarlyLaneRetirementOnStall)
{
    std::vector<RunParams> grid;
    for (auto scheme : {Scheme::Base, Scheme::EarlyRelease,
                        Scheme::PriRefcountCkptcount,
                        Scheme::PriPlusEr})
        grid.push_back(point("gzip", 7, scheme));
    grid[1].cycleBudget = 1000; // trips well before completion

    SimulationRunner runner(1);
    runner.setBatchLanes(8);
    const auto out = runner.runCaptured(grid);
    ASSERT_EQ(out.size(), grid.size());

    ASSERT_FALSE(out[1].ok());
    EXPECT_TRUE(out[1].stalled);
    EXPECT_EQ(out[1].error.find("run 1 ("), 0u) << out[1].error;
    EXPECT_EQ(out[1].attempts, 1u); // stalls are never retried

    for (size_t i : {size_t{0}, size_t{2}, size_t{3}}) {
        ASSERT_TRUE(out[i].ok()) << out[i].error;
        EXPECT_FALSE(out[i].stalled);
        EXPECT_EQ(out[i].result.report, simulate(grid[i]).report);
    }

    // The stall itself is deterministic: serial execution of the
    // same point stalls too.
    const auto serial =
        SimulationRunner(1).runCaptured({grid[1]});
    ASSERT_FALSE(serial[0].ok());
    EXPECT_TRUE(serial[0].stalled);
}

/**
 * Straggler regression: one lane configured an order of magnitude
 * slower (minimal register file and scheduler) shares a batch with
 * fast siblings. The fast lanes retire early; the straggler keeps
 * rotating alone and still matches its serial run byte for byte.
 */
TEST(SweepBatch, StragglerLaneMatchesSerial)
{
    std::vector<RunParams> grid;
    for (auto scheme : {Scheme::Base, Scheme::EarlyRelease,
                        Scheme::PriRefcountCkptcount,
                        Scheme::PriPlusEr})
        grid.push_back(point("gzip", 11, scheme, 8));
    grid[2].physRegs = 40;
    grid[2].schedSizeOverride = 8;

    const auto ref = serialReference(grid);
    SimulationRunner runner(1);
    runner.setBatchLanes(8);
    const auto out = runner.runCaptured(grid);
    for (size_t i = 0; i < grid.size(); ++i) {
        ASSERT_TRUE(out[i].ok()) << out[i].error;
        EXPECT_EQ(out[i].result.report, ref[i].report)
            << paramsSummary(grid[i]);
    }
}

/**
 * Journal hits are excluded before batch formation: a resumed sweep
 * serves finished points from the journal (zero attempts), batches
 * only the remainder, and the remainder is byte-identical to
 * serial. Exercises the resume-mid-group case — part of a formed
 * group already journaled.
 */
TEST(SweepBatch, JournalHitsExcludedBeforeFormation)
{
    // Per-process name: ctest runs this binary twice (default and
    // fine quantum), possibly at the same time.
    const std::string path = testing::TempDir() +
        "pri_test_journal_batch." + std::to_string(::getpid());
    std::remove(path.c_str());

    auto grid = schemeGrid();
    grid.resize(12);
    const auto ref = serialReference(grid);

    // First pass: only every third point, batched, journaled.
    std::vector<RunParams> subset;
    for (size_t i = 0; i < grid.size(); i += 3)
        subset.push_back(grid[i]);
    {
        SweepJournal journal(path);
        SimulationRunner runner(1);
        runner.setBatchLanes(16);
        runner.setJournal(&journal);
        const auto out = runner.runCaptured(subset);
        for (const auto &o : out)
            ASSERT_TRUE(o.ok()) << o.error;
        EXPECT_EQ(journal.appendedPoints(), subset.size());
    }

    // Resumed pass over the full grid: hits come from the journal
    // without occupying a lane, fresh points are batched and match
    // serial.
    SweepJournal reloaded(path);
    EXPECT_EQ(reloaded.loadedPoints(), subset.size());
    SimulationRunner runner(1);
    runner.setBatchLanes(16);
    runner.setJournal(&reloaded);
    const auto out = runner.runCaptured(grid);
    for (size_t i = 0; i < grid.size(); ++i) {
        ASSERT_TRUE(out[i].ok()) << out[i].error;
        EXPECT_EQ(out[i].fromJournal, i % 3 == 0);
        EXPECT_EQ(out[i].attempts, i % 3 == 0 ? 0u : 1u);
        EXPECT_EQ(out[i].result.report, ref[i].report);
    }
    std::remove(path.c_str());
}

/** Transient-failure points are unbatchable singletons, so the
 *  runner's retry policy applies to them unchanged inside a
 *  batched sweep. */
TEST(SweepBatch, TransientFailureRetriesInsideBatchedSweep)
{
    std::vector<RunParams> grid;
    grid.push_back(point("gzip", 7, Scheme::Base));
    grid.push_back(point("gzip", 7, Scheme::EarlyRelease));
    grid[1].injectTransientFails = 2;

    SimulationRunner runner(1);
    runner.setBatchLanes(8);
    runner.setRetryPolicy({3, 0});
    const auto out = runner.runCaptured(grid);
    ASSERT_TRUE(out[1].ok()) << out[1].error;
    EXPECT_EQ(out[1].attempts, 3u);
    EXPECT_EQ(out[0].attempts, 1u);
}

} // namespace
} // namespace pri::sim
