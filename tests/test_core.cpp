/**
 * @file
 * End-to-end tests of the out-of-order core: progress, invariant
 * preservation, measurement windows, and behaviour across every
 * register-management scheme and both machine widths.
 */

#include <gtest/gtest.h>

#include <ostream>

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

TEST(Core, MakesForwardProgress)
{
    const auto cfg = CoreConfig::fourWide(
        RenameConfig::of(Scheme::Base, 64, 7));
    CoreHarness h(cfg, "gzip");
    h.cpu.run(5000);
    EXPECT_GE(h.cpu.committedInsts(), 5000u);
    EXPECT_GT(h.cpu.cycles(), 0u);
    h.cpu.checkInvariants();
}

TEST(Core, IpcWindowMeasuresOnlyAfterMark)
{
    const auto cfg = CoreConfig::fourWide(
        RenameConfig::of(Scheme::Base, 64, 7));
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
    auto cfg =
        CoreConfig::fourWide(RenameConfig::of(Scheme::Base, 64, 7));
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
    const auto cfg = CoreConfig::fourWide(
        RenameConfig::of(Scheme::Base, 64, 7));
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
        const auto cfg = CoreConfig::fourWide(cfgs[i]);
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
    const auto cfg = CoreConfig::fourWide(
        RenameConfig::of(Scheme::PriRefcountCkptcount, 64, 7));
    CoreHarness h(cfg, "gcc", 23);
    h.cpu.run(40000);
    EXPECT_GT(h.stats.scalarValue("core.branchMispredicts"), 100.0);
    EXPECT_GT(h.stats.scalarValue("core.squashedInsts"), 100.0);
    h.cpu.checkInvariants();
}

TEST(Core, SpeculativeSchedulingReplaysOnLoadMiss)
{
    const auto cfg = CoreConfig::fourWide(
        RenameConfig::of(Scheme::Base, 64, 7));
    CoreHarness h(cfg, "mcf"); // miss-heavy
    h.cpu.run(20000);
    EXPECT_GT(h.stats.scalarValue("core.loadMisses"), 100.0);
    EXPECT_GT(h.stats.scalarValue("core.replays"), 100.0);
    h.cpu.checkInvariants();
}

TEST(Core, StoreToLoadForwardingHappens)
{
    const auto cfg = CoreConfig::fourWide(
        RenameConfig::of(Scheme::Base, 64, 7));
    CoreHarness h(cfg, "vortex"); // store-heavy
    h.cpu.run(30000);
    EXPECT_GT(h.stats.scalarValue("core.loadForwards"), 0.0);
}

TEST(Core, PriInlinesAndFreesEarly)
{
    const auto cfg = CoreConfig::fourWide(
        RenameConfig::of(Scheme::PriRefcountCkptcount, 64, 7));
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
    const auto cfg = CoreConfig::fourWide(
        RenameConfig::of(Scheme::PriIdealCkptcount, 64, 7));
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
    const auto rn = RenameConfig::of(
        prm.scheme, 64, CoreConfig::narrowBitsForWidth(prm.width));
    const auto cfg = prm.width == 8 ? CoreConfig::eightWide(rn)
                                    : CoreConfig::fourWide(rn);
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
        for (unsigned w : {4u, 8u})
            v.push_back({row.scheme, w});
    }
    return v;
}

INSTANTIATE_TEST_SUITE_P(AllSchemesBothWidths, CoreSchemeTest,
                         ::testing::ValuesIn(allSchemeWidthParams()));

} // namespace
} // namespace pri::core
