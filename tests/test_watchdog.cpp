/**
 * @file
 * Tests for the forward-progress watchdog and the flight recorder:
 * a wedged scheduler must be detected and reported with the run's
 * parameters and a pipeline-event trace; budgets must trip with the
 * right kind; and — the false-positive guard — a healthy
 * memory-bound run under a tight threshold must complete with a
 * report byte-identical to the same run at the default threshold
 * and at one too large ever to sample, because detection is
 * observation-only.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/flight_recorder.hh"
#include "core/core.hh"
#include "sim/simulation.hh"

namespace pri
{
namespace
{

// ---- flight recorder unit tests ----

TEST(FlightRecorder, RecordsAndDumpsWithContext)
{
    FlightRecorder fr;
    EXPECT_TRUE(fr.empty());
    fr.setContext("gzip / Base / w4 / pregs 64 / seed 42");
    fr.record(FlightEvent::Fetch, 100, 0x1000, 1, 0);
    fr.record(FlightEvent::Rename, 101, 0x1000, 1, 17);
    fr.record(FlightEvent::Issue, 103, 0x1000, 1, 17);
    fr.record(FlightEvent::Commit, 105, 0x1000, 1, 17);
    EXPECT_EQ(fr.eventsRecorded(), 4u);

    const std::string d = fr.dump();
    EXPECT_NE(d.find("gzip / Base / w4 / pregs 64 / seed 42"),
              std::string::npos);
    EXPECT_NE(d.find("fetch"), std::string::npos);
    EXPECT_NE(d.find("rename"), std::string::npos);
    EXPECT_NE(d.find("issue"), std::string::npos);
    EXPECT_NE(d.find("commit"), std::string::npos);
    EXPECT_NE(d.find("cycle 105"), std::string::npos);
    EXPECT_NE(d.find("pc 0x1000"), std::string::npos);
}

TEST(FlightRecorder, RingKeepsMostRecentEvents)
{
    FlightRecorder fr;
    const uint64_t total = FlightRecorder::kCapacity + 50;
    for (uint64_t i = 0; i < total; ++i)
        fr.record(FlightEvent::Commit, i, 0x2000 + 4 * i, i, 0);
    EXPECT_EQ(fr.eventsRecorded(), total);

    const std::string d = fr.dump(8);
    // Only the newest events survive the wrap; the dump shows the
    // last 8 of them, oldest first.
    EXPECT_NE(d.find("last 8 of 306 events"), std::string::npos);
    EXPECT_NE(d.find("gidx 305"), std::string::npos);
    EXPECT_NE(d.find("gidx 298"), std::string::npos);
    EXPECT_EQ(d.find("gidx 297 "), std::string::npos);
}

TEST(FlightRecorder, ClearDropsEventsAndContext)
{
    FlightRecorder fr;
    fr.setContext("stale context");
    fr.record(FlightEvent::Note, 1, 2, 3, 4);
    fr.clear();
    EXPECT_TRUE(fr.empty());
    EXPECT_EQ(std::string(fr.context()), "");
    EXPECT_EQ(fr.dump().find("stale"), std::string::npos);
}

TEST(FlightRecorder, LongContextIsTruncatedNotOverflowed)
{
    FlightRecorder fr;
    fr.setContext(std::string(1000, 'x').c_str());
    EXPECT_LT(std::string(fr.context()).size(), 200u);
}

// ---- watchdog detection ----

/** A threshold no run reaches: the first livelock audit would come
 *  after 1.25e11 cycles, so the watchdog never samples. */
constexpr uint64_t kUnsampledThreshold = 1'000'000'000'000;

sim::RunParams
wedgedParams()
{
    sim::RunParams p;
    p.benchmark = "gzip";
    p.warmupInsts = 2000;
    p.measureInsts = 50000;
    p.injectFault = core::InjectedFault::WedgeScheduler;
    p.watchdogCycles = 30000;
    return p;
}

TEST(Watchdog, DetectsWedgedScheduler)
{
    try {
        sim::simulate(wedgedParams());
        FAIL() << "wedged run completed";
    } catch (const core::ProgressStallError &e) {
        // The wedge freezes every occupancy, so the livelock
        // auditor fires first; a plain commit gap would report
        // CommitStall.
        EXPECT_TRUE(e.stall.kind ==
                        core::ProgressStall::Kind::Livelock ||
                    e.stall.kind ==
                        core::ProgressStall::Kind::CommitStall);
        EXPECT_GE(e.stall.committed, core::kWedgeAfterCommits);
        EXPECT_GT(e.stall.cycle, e.stall.lastCommitCycle);

        const std::string msg = e.what();
        EXPECT_NE(msg.find("forward-progress watchdog"),
                  std::string::npos);
        // The report names the wedged run and carries its trace.
        EXPECT_NE(msg.find("gzip / Base / w4 / pregs 64 / seed 42"),
                  std::string::npos);
        EXPECT_NE(msg.find("flight recorder"), std::string::npos);
        EXPECT_NE(msg.find("commit"), std::string::npos);
    }
}

/**
 * A threshold too large ever to sample leaves the watchdog in effect
 * off, and a wedged run ends at the cycle budget. At the default
 * threshold the livelock audit catches a wedge at cycle 312,500 at
 * the earliest, so the shorter budget trips first there too.
 */
TEST(Watchdog, DisabledWatchdogDefersToCycleBudget)
{
    for (const uint64_t threshold : {kUnsampledThreshold, uint64_t{0}}) {
        SCOPED_TRACE(threshold);
        auto p = wedgedParams();
        p.watchdogCycles = threshold;
        p.cycleBudget = 200000;
        try {
            sim::simulate(p);
            FAIL() << "wedged run completed";
        } catch (const core::ProgressStallError &e) {
            EXPECT_EQ(e.stall.kind,
                      core::ProgressStall::Kind::CycleBudget);
            EXPECT_GE(e.stall.cycle, 200000u);
        }
    }
}

TEST(Watchdog, CycleBudgetTripsOnHealthyRun)
{
    sim::RunParams p;
    p.benchmark = "gzip";
    p.warmupInsts = 2000;
    p.measureInsts = 1000000;
    p.cycleBudget = 5000;
    try {
        sim::simulate(p);
        FAIL() << "budget never tripped";
    } catch (const core::ProgressStallError &e) {
        EXPECT_EQ(e.stall.kind,
                  core::ProgressStall::Kind::CycleBudget);
        EXPECT_NE(std::string(e.what()).find("cycle-budget"),
                  std::string::npos);
    }
}

TEST(Watchdog, WallClockBudgetTrips)
{
    sim::RunParams p;
    p.benchmark = "gzip";
    p.warmupInsts = 2000;
    // Large enough that the run takes well over the budget on any
    // machine; the deadline check fires every 4096 cycles.
    p.measureInsts = 50000000;
    p.timeoutMs = 20;
    try {
        sim::simulate(p);
        FAIL() << "wall-clock budget never tripped";
    } catch (const core::ProgressStallError &e) {
        EXPECT_EQ(e.stall.kind,
                  core::ProgressStall::Kind::WallClock);
    }
}

TEST(Watchdog, StallDescribeNamesOccupancies)
{
    core::ProgressStall s{};
    s.kind = core::ProgressStall::Kind::Livelock;
    s.cycle = 1000;
    s.lastCommitCycle = 400;
    s.committed = 123;
    s.robCount = 7;
    s.schedCount = 3;
    s.schedHeld = 1;
    s.fetchCount = 2;
    s.occInt = 60;
    s.occFp = 32;
    const std::string d = s.describe();
    EXPECT_NE(d.find("livelock"), std::string::npos);
    EXPECT_NE(d.find("cycle 1000"), std::string::npos);
    EXPECT_NE(d.find("rob 7"), std::string::npos);
    EXPECT_NE(d.find("INT 60"), std::string::npos);
}

/**
 * False-positive guard: a memory-bound benchmark (long dependent
 * L2-miss chains, the slowest committer in the suite) under a tight
 * threshold must NOT trip — and because the watchdog only observes,
 * the stats report must be byte-identical to the default threshold
 * and to one that never samples.
 */
TEST(Watchdog, MemoryBoundRunUnderTightThresholdIsClean)
{
    sim::RunParams p;
    p.benchmark = "mcf";
    p.physRegs = 48; // extra register pressure
    p.warmupInsts = 2000;
    p.measureInsts = 20000;
    p.watchdogCycles = 10000;

    auto unsampled = p;
    unsampled.watchdogCycles = kUnsampledThreshold;
    auto at_default = p;
    at_default.watchdogCycles = 0;

    const auto tight = sim::simulate(p);
    for (const auto &other : {unsampled, at_default}) {
        const auto r = sim::simulate(other);
        SCOPED_TRACE(other.watchdogCycles);
        EXPECT_EQ(tight.report, r.report);
        EXPECT_EQ(tight.cycles, r.cycles);
        EXPECT_EQ(tight.ipc, r.ipc);
    }
}

/** Same guard across every scheme at the default threshold. */
TEST(Watchdog, AllSchemesCleanAtDefaultThreshold)
{
    for (const auto scheme : sim::kAllSchemes) {
        sim::RunParams p;
        p.benchmark = "art";
        p.scheme = scheme;
        p.warmupInsts = 2000;
        p.measureInsts = 8000;
        auto unsampled = p;
        unsampled.watchdogCycles = kUnsampledThreshold;
        SCOPED_TRACE(sim::schemeName(scheme));
        EXPECT_EQ(sim::simulate(p).report,
                  sim::simulate(unsampled).report);
    }
}

} // namespace
} // namespace pri
