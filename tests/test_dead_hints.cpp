/**
 * @file
 * Tests for the software dead-value hint extension (paper §6): the
 * generator's hint instructions, their zero values, and the PRI
 * interaction that frees the dead register early.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "workload/program.hh"
#include "workload/walker.hh"

namespace pri::workload
{
namespace
{

BenchmarkProfile
hintedProfile(double frac)
{
    BenchmarkProfile p = profileByName("crafty");
    p.deadHintFrac = frac;
    return p;
}

TEST(DeadHints, DefaultProfilesHaveNone)
{
    for (const auto &p : allProfiles())
        EXPECT_EQ(p.deadHintFrac, 0.0) << p.name;
    SyntheticProgram prog(profileByName("crafty"), 9);
    for (uint32_t b = 0; b < prog.numBlocks(); ++b)
        for (const auto &si : prog.block(b).insts)
            EXPECT_FALSE(si.isDeadHint);
}

TEST(DeadHints, DensityControlsStaticHintCount)
{
    const auto p0 = hintedProfile(0.0);
    const auto p5 = hintedProfile(0.5);
    const auto p10 = hintedProfile(1.0);
    SyntheticProgram g0(p0, 9);
    SyntheticProgram g5(p5, 9);
    SyntheticProgram g10(p10, 9);

    auto count_hints = [](const SyntheticProgram &g) {
        size_t n = 0;
        for (uint32_t b = 0; b < g.numBlocks(); ++b)
            for (const auto &si : g.block(b).insts)
                n += si.isDeadHint;
        return n;
    };
    EXPECT_EQ(count_hints(g0), 0u);
    const size_t h5 = count_hints(g5);
    const size_t h10 = count_hints(g10);
    EXPECT_GT(h5, 0u);
    EXPECT_GT(h10, h5);
    // Full density: nearly one hint per block.
    EXPECT_GE(h10, g10.numBlocks() * 9 / 10);
}

TEST(DeadHints, ProgramOtherwiseIdenticalAcrossDensities)
{
    // Sweeps must be paired: non-hint instructions are unchanged.
    const auto pa = hintedProfile(0.0);
    const auto pb = hintedProfile(1.0);
    SyntheticProgram a(pa, 9);
    SyntheticProgram b(pb, 9);
    ASSERT_EQ(a.numBlocks(), b.numBlocks());
    for (uint32_t i = 0; i < a.numBlocks(); ++i) {
        const auto &ba = a.block(i);
        const auto &bb = b.block(i);
        size_t ka = 0;
        for (const auto &si : bb.insts) {
            if (si.isDeadHint)
                continue;
            ASSERT_LT(ka, ba.insts.size());
            EXPECT_EQ(ba.insts[ka].cls, si.cls);
            EXPECT_EQ(ba.insts[ka].pc, si.pc);
            ++ka;
        }
        EXPECT_EQ(ka, ba.insts.size());
    }
}

TEST(DeadHints, HintsAlwaysProduceZero)
{
    const auto p = hintedProfile(1.0);
    SyntheticProgram prog(p, 9);
    Walker w(prog);
    size_t seen = 0;
    for (int i = 0; i < 20000; ++i) {
        auto wi = w.next();
        if (wi.isBranch())
            w.steer(wi, wi.taken, wi.actualTarget);
        const auto &si = [&]() -> const StaticInst & {
            // Re-locate the static instruction to check the flag.
            for (uint32_t b = 0; b < prog.numBlocks(); ++b)
                for (const auto &s : prog.block(b).insts)
                    if (s.id == wi.staticId)
                        return s;
            static StaticInst none;
            return none;
        }();
        if (si.isDeadHint) {
            ++seen;
            EXPECT_EQ(wi.resultValue, 0u);
            EXPECT_TRUE(wi.hasDst());
        }
    }
    EXPECT_GT(seen, 100u);
}

TEST(DeadHints, PriTurnsHintsIntoEarlyFrees)
{
    const auto prof = hintedProfile(1.0);
    SyntheticProgram prog(prof, 9);

    auto early_frees = [&](bool pri_on) {
        StatGroup stats;
        const auto rc = rename::RenameConfig::of(
            pri_on ? rename::Scheme::PriRefcountCkptcount
                   : rename::Scheme::Base,
            64, 7);
        core::OutOfOrderCore cpu(core::CoreConfig::fourWide(rc),
                                 prog, stats);
        cpu.run(20000);
        cpu.checkInvariants();
        return stats.scalarValue("pri.earlyFrees");
    };
    EXPECT_EQ(early_frees(false), 0.0);
    EXPECT_GT(early_frees(true), 1000.0);
}

} // namespace
} // namespace pri::workload
