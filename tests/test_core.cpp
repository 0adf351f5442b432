/**
 * @file
 * End-to-end tests of the out-of-order core: progress, invariant
 * preservation, measurement windows, and behaviour across every
 * register-management scheme and both machine widths.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <ostream>
#include <tuple>

#include "core/core.hh"
#include "workload/program.hh"

namespace pri::core
{
namespace
{

using rename::RenameConfig;
using rename::Scheme;

struct CoreHarness
{
    StatGroup stats;
    workload::SyntheticProgram prog;
    OutOfOrderCore cpu;

    CoreHarness(const CoreConfig &cfg, const std::string &bench,
                uint64_t seed = 3)
        : prog(workload::profileByName(bench), seed),
          cpu(cfg, prog, stats)
    {
    }
};

TEST(MachineTable, MatchesPaperTable1)
{
    // What differs by width: one row per machine.
    ASSERT_EQ(std::size(kMachineTable), 2u);
    const MachineRow &four = kMachineTable[0];
    EXPECT_STREQ(four.label, "current generation");
    EXPECT_EQ(four.width, 4u);
    EXPECT_EQ(four.schedSize, 32u);
    EXPECT_EQ(four.numIntAlu, 4u);
    EXPECT_EQ(four.numIntMultDiv, 1u);
    EXPECT_EQ(four.numFpAlu, 2u);
    EXPECT_EQ(four.numFpMultDiv, 1u);
    EXPECT_EQ(four.numMemPorts, 2u);
    EXPECT_EQ(four.narrowBits, 7u); // 8-bit map entry less its mode bit
    const MachineRow &eight = kMachineTable[1];
    EXPECT_STREQ(eight.label, "future machine");
    EXPECT_EQ(eight.width, 8u);
    EXPECT_EQ(eight.schedSize, 512u);
    EXPECT_EQ(eight.numIntAlu, 8u);
    EXPECT_EQ(eight.numIntMultDiv, 2u);
    EXPECT_EQ(eight.numFpAlu, 4u);
    EXPECT_EQ(eight.numFpMultDiv, 2u);
    EXPECT_EQ(eight.numMemPorts, 4u);
    EXPECT_EQ(eight.narrowBits, 10u); // 11-bit entry less its mode bit

    EXPECT_EQ(machineRow(4), &four);
    EXPECT_EQ(machineRow(8), &eight);
    EXPECT_EQ(machineRow(5), nullptr);
    const auto rn = RenameConfig::of(Scheme::Base, 64, 10);
    EXPECT_EQ(CoreConfig::of(8, rn).width, 8u);
    EXPECT_EQ(CoreConfig::of(8, rn).schedSize, 512u);
    EXPECT_EQ(CoreConfig::of(4, rn).schedSize, 32u);

    // What both machines share.
    EXPECT_EQ(kRobSize, 512u);
    EXPECT_EQ(kLsqSize, 256u);
    EXPECT_EQ(kFetchToRename, 2u);
    EXPECT_EQ(kRenameToSelect, 2u);
    EXPECT_EQ(kSelectToExe, 4u);
    EXPECT_EQ(kExeToRetire, 1u);
    EXPECT_EQ(kRedirectPenalty, 2u);
    EXPECT_EQ(kBtbMissPenalty, 2u);
    // {size, ways, line bytes, hit latency}
    using Geometry = std::tuple<uint64_t, unsigned, unsigned, unsigned>;
    const auto geometry = [](const memory::CacheParams &c) {
        return Geometry{c.sizeBytes, c.assoc, c.lineBytes, c.latency};
    };
    EXPECT_EQ(geometry(memory::kIl1), Geometry(32 * 1024, 2, 32, 2));
    EXPECT_EQ(geometry(memory::kDl1), Geometry(32 * 1024, 4, 16, 2));
    EXPECT_EQ(geometry(memory::kL2), Geometry(512 * 1024, 4, 64, 12));
    EXPECT_EQ(memory::kMemLatency, 150u);
}

TEST(Core, MakesForwardProgress)
{
    const auto cfg = CoreConfig::of(4, RenameConfig::of(Scheme::Base, 64, 7));
    CoreHarness h(cfg, "gzip");
    h.cpu.run(5000);
    EXPECT_GE(h.cpu.committedInsts(), 5000u);
    EXPECT_GT(h.cpu.cycles(), 0u);
    h.cpu.checkInvariants();
}

TEST(Core, IpcWindowMeasuresOnlyAfterMark)
{
    const auto cfg = CoreConfig::of(4, RenameConfig::of(Scheme::Base, 64, 7));
    CoreHarness h(cfg, "gzip");
    h.cpu.run(3000);
    h.cpu.beginMeasurement();
    const uint64_t c0 = h.cpu.cycles();
    h.cpu.run(3000);
    const double ipc = h.cpu.ipc();
    EXPECT_GT(ipc, 0.0);
    EXPECT_NEAR(ipc,
                3000.0 / static_cast<double>(h.cpu.cycles() - c0),
                0.01);
}

TEST(Core, RespectsMaxCycles)
{
    // cfg.cycleBudget is the one cycle cap: a run that cannot reach
    // its commit target stops there with a structured stall.
    auto cfg = CoreConfig::of(4, RenameConfig::of(Scheme::Base, 64, 7));
    cfg.cycleBudget = 2000;
    CoreHarness h(cfg, "gzip");
    try {
        h.cpu.run(1000000000); // unreachable commit target
        FAIL() << "cycle budget never tripped";
    } catch (const ProgressStallError &e) {
        EXPECT_EQ(e.stall.kind, ProgressStall::Kind::CycleBudget);
    }
    EXPECT_EQ(h.cpu.cycles(), 2000u);
}

TEST(Core, OccupancyBoundedByFileSize)
{
    const auto cfg = CoreConfig::of(4, RenameConfig::of(Scheme::Base, 64, 7));
    CoreHarness h(cfg, "gzip");
    h.cpu.run(2000);
    h.cpu.beginMeasurement();
    h.cpu.run(8000);
    EXPECT_LE(h.cpu.avgIntOccupancy(), 64.0);
    EXPECT_GE(h.cpu.avgIntOccupancy(), 32.0); // arch state floor
    EXPECT_LE(h.cpu.avgFpOccupancy(), 64.0);
}

TEST(Core, CommittedStreamIdenticalAcrossSchemes)
{
    // The committed instruction stream (and thus total committed
    // branch/load counts over a fixed instruction budget) must not
    // depend on the register-management scheme.
    double branches[3];
    const RenameConfig cfgs[3] = {
        RenameConfig::of(Scheme::Base, 64, 7),
        RenameConfig::of(Scheme::PriRefcountCkptcount, 64, 7),
        RenameConfig::of(Scheme::InfinitePregs, 64, 7),
    };
    for (int i = 0; i < 3; ++i) {
        const auto cfg = CoreConfig::of(4, cfgs[i]);
        CoreHarness h(cfg, "gcc", 17);
        h.cpu.run(20000);
        branches[i] = h.stats.scalarValue("core.committedBranches");
    }
    // Tiny boundary differences allowed (run() stops at a width
    // granularity), but the streams must agree to within a bundle.
    EXPECT_NEAR(branches[0], branches[1], 8.0);
    EXPECT_NEAR(branches[0], branches[2], 8.0);
}

TEST(Core, BranchRecoveryKeepsDataflowCorrect)
{
    // gcc is the branchiest profile; thousands of squashes happen
    // here. The core's internal dataflow assertion (renamed operand
    // value == architectural value) panics on any corruption, so
    // surviving the run IS the test.
    const auto cfg = CoreConfig::of(
        4, RenameConfig::of(Scheme::PriRefcountCkptcount, 64, 7));
    CoreHarness h(cfg, "gcc", 23);
    h.cpu.run(40000);
    EXPECT_GT(h.stats.scalarValue("core.branchMispredicts"), 100.0);
    EXPECT_GT(h.stats.scalarValue("core.squashedInsts"), 100.0);
    h.cpu.checkInvariants();
}

TEST(Core, SpeculativeSchedulingReplaysOnLoadMiss)
{
    const auto cfg = CoreConfig::of(4, RenameConfig::of(Scheme::Base, 64, 7));
    CoreHarness h(cfg, "mcf"); // miss-heavy
    h.cpu.run(20000);
    EXPECT_GT(h.stats.scalarValue("core.loadMisses"), 100.0);
    EXPECT_GT(h.stats.scalarValue("core.replays"), 100.0);
    h.cpu.checkInvariants();
}

TEST(Core, StoreToLoadForwardingHappens)
{
    const auto cfg = CoreConfig::of(4, RenameConfig::of(Scheme::Base, 64, 7));
    CoreHarness h(cfg, "vortex"); // store-heavy
    h.cpu.run(30000);
    EXPECT_GT(h.stats.scalarValue("core.loadForwards"), 0.0);
}

TEST(Core, PriInlinesAndFreesEarly)
{
    const auto cfg = CoreConfig::of(
        4, RenameConfig::of(Scheme::PriRefcountCkptcount, 64, 7));
    CoreHarness h(cfg, "gzip");
    h.cpu.run(20000);
    EXPECT_GT(h.stats.scalarValue("pri.narrowResultsInt"), 1000.0);
    EXPECT_GT(h.stats.scalarValue("pri.inlinedCurrentMap"), 100.0);
    EXPECT_GT(h.stats.scalarValue("pri.earlyFrees"), 1000.0);
    EXPECT_GT(h.stats.scalarValue("rename.srcImmReads"), 100.0);
    EXPECT_GT(h.stats.scalarValue("rename.duplicateCommitFrees"),
              0.0);
    h.cpu.checkInvariants();
}

TEST(Core, IdealPayloadRewriteFiresInCore)
{
    const auto cfg = CoreConfig::of(
        4, RenameConfig::of(Scheme::PriIdealCkptcount, 64, 7));
    CoreHarness h(cfg, "gzip");
    h.cpu.run(20000);
    EXPECT_GT(h.stats.scalarValue("pri.idealPayloadRewrites"), 0.0);
    h.cpu.checkInvariants();
}

struct SchemeWidthParam
{
    Scheme scheme;
    unsigned width;
};

/** gtest prints (and ctest names) a param as "PRI+ER_w8". */
void
PrintTo(const SchemeWidthParam &p, std::ostream *os)
{
    *os << rename::schemeName(p.scheme) << "_w" << p.width;
}

class CoreSchemeTest
    : public ::testing::TestWithParam<SchemeWidthParam>
{
};

TEST_P(CoreSchemeTest, RunsCleanlyWithInvariants)
{
    const auto &prm = GetParam();
    const auto rn = RenameConfig::of(prm.scheme, 64,
                                     machineRow(prm.width)->narrowBits);
    const auto cfg = CoreConfig::of(prm.width, rn);
    CoreHarness h(cfg, "twolf", 5);
    h.cpu.run(15000);
    EXPECT_GE(h.cpu.committedInsts(), 15000u);
    h.cpu.checkInvariants();
    // Conservation: every free matches either a counted allocation
    // or one of the 2x32 initially-allocated architected registers;
    // the remainder is bounded by live registers.
    const double allocs = h.stats.scalarValue("rename.destAllocs");
    const double frees = h.stats.scalarValue("rename.frees");
    EXPECT_LE(frees, allocs + 2.0 * isa::kNumLogicalRegs);
    EXPECT_LE(allocs - frees, 2.0 * cfg.rename.numPhysRegs);
}

std::vector<SchemeWidthParam>
allSchemeWidthParams()
{
    std::vector<SchemeWidthParam> v;
    for (const auto &row : rename::kSchemeTable) {
        if (row.policy.virtualPhysical)
            continue; // VP and VP+PRI: test_virtual_physical.cpp
        for (const auto &machine : kMachineTable)
            v.push_back({row.scheme, machine.width});
    }
    return v;
}

INSTANTIATE_TEST_SUITE_P(AllSchemesBothWidths, CoreSchemeTest,
                         ::testing::ValuesIn(allSchemeWidthParams()));

} // namespace
} // namespace pri::core
