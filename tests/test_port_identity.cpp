/**
 * @file
 * Determinism suite for the PRF read-port axis:
 *
 *  - ports = 0 (unlimited) is exactly the pre-port-model machine:
 *    the report registers no core.prfPort* stats, and a
 *    never-binding finite budget times identically to unlimited
 *    (same cycles/IPC/occupancy; reports differ only by the four
 *    port-stat lines);
 *  - a binding budget is byte-identical across worker counts and
 *    journal record/replay — the
 *    arbitration decision must be a pure function of machine state,
 *    not of how the sweep infrastructure scheduled the run. Its
 *    timing is pinned in test_sched_wakeup.cpp.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "expect_identical.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"

namespace pri::sim
{
namespace
{

RunParams
portedParams(unsigned ports)
{
    RunParams p;
    p.benchmark = "gcc";
    p.width = 8;
    p.scheme = Scheme::PriRefcountCkptcount;
    p.physRegs = 64;
    p.warmupInsts = 2000;
    p.measureInsts = 8000;
    p.seed = 7;
    p.prfReadPorts = ports;
    return p;
}

/** Strip the conditionally-registered core.prfPort* lines so a
 *  finite-budget report can be compared against unlimited. */
std::string
withoutPortLines(const std::string &report)
{
    std::string out;
    size_t start = 0;
    while (start < report.size()) {
        size_t end = report.find('\n', start);
        if (end == std::string::npos)
            end = report.size();
        const std::string line =
            report.substr(start, end - start);
        if (line.find("core.prfPort") == std::string::npos) {
            out += line;
            out += '\n';
        }
        start = end + 1;
    }
    return out;
}

/** Unlimited ports registers no port stats: the machine and its
 *  report are exactly the pre-port-model ones. */
TEST(PortIdentity, UnlimitedReportHasNoPortStats)
{
    const auto r = simulate(portedParams(0));
    EXPECT_EQ(r.report.find("core.prfPort"), std::string::npos);
    EXPECT_EQ(r.portStallsPerKInst, 0.0);
    EXPECT_EQ(r.portInlineBypassFrac, 0.0);
}

/** A budget wide enough to never deny (one op needs at most 2
 *  ports, at most `width` ops issue per cycle) must time exactly
 *  like unlimited — the arbiter is pure observation until it
 *  denies. Reports differ only by the port-stat lines. */
TEST(PortIdentity, NeverBindingBudgetTimesLikeUnlimited)
{
    const auto unlimited = simulate(portedParams(0));
    auto p = portedParams(0);
    p.prfReadPorts = 2 * p.width;
    const auto wide = simulate(p);
    EXPECT_EQ(unlimited.ipc, wide.ipc);
    EXPECT_EQ(unlimited.cycles, wide.cycles);
    EXPECT_EQ(unlimited.insts, wide.insts);
    EXPECT_EQ(unlimited.avgIntOccupancy, wide.avgIntOccupancy);
    EXPECT_EQ(unlimited.branchMispredictRate,
              wide.branchMispredictRate);
    EXPECT_EQ(wide.portStallsPerKInst, 0.0);
    EXPECT_GT(wide.portInlineBypassFrac, 0.0);
    EXPECT_EQ(withoutPortLines(unlimited.report),
              withoutPortLines(wide.report));
}

/** A binding budget (2 ports on an 8-wide machine) must produce
 *  bit-identical results across worker counts. */
TEST(PortIdentity, BindingBudgetIdenticalAcrossJobs)
{
    std::vector<RunParams> batch;
    for (unsigned ports : {2u, 4u})
        batch.push_back(portedParams(ports));
    const auto serial = SimulationRunner(1).run(batch);
    const auto parallel = SimulationRunner(4).run(batch);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectIdentical(serial[i], parallel[i]);
        EXPECT_GT(serial[i].portStallsPerKInst, 0.0);
    }
}

/** Journal round-trip: a ported point recorded to the journal and
 *  replayed from it reproduces the fresh result bit-for-bit,
 *  including the port-pressure metrics. */
TEST(PortIdentity, BindingBudgetSurvivesJournalRoundTrip)
{
    const std::string path =
        testing::TempDir() + "pri_test_port_journal";
    std::remove(path.c_str());
    const std::vector<RunParams> batch{portedParams(2)};

    {
        SweepJournal journal(path);
        SimulationRunner runner(1);
        runner.setJournal(&journal);
        const auto fresh = runner.runCaptured(batch);
        ASSERT_TRUE(fresh[0].ok()) << fresh[0].error;
        EXPECT_FALSE(fresh[0].fromJournal);
    }

    SweepJournal reloaded(path);
    EXPECT_EQ(reloaded.loadedPoints(), 1u);
    SimulationRunner runner(1);
    runner.setJournal(&reloaded);
    const auto cached = runner.runCaptured(batch);
    ASSERT_TRUE(cached[0].ok()) << cached[0].error;
    EXPECT_TRUE(cached[0].fromJournal);
    expectIdentical(cached[0].result, simulate(batch[0]));
    EXPECT_GT(cached[0].result.portStallsPerKInst, 0.0);
    std::remove(path.c_str());
}

} // namespace
} // namespace pri::sim
