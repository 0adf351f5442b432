/**
 * @file
 * Tests for the virtual-physical register extension (paper §6
 * future work): delayed storage allocation at writeback, reserved
 * drain pool, and the VP+PRI synergy where inlined values never
 * claim storage.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "rename/rename_unit.hh"
#include "workload/program.hh"

namespace pri::rename
{
namespace
{

using isa::intReg;
using isa::RegClass;

TEST(VirtualPhysical, RenameNeverStallsForRegisters)
{
    StatGroup sg;
    RenameUnit rn(RenameConfig::of(Scheme::VirtualPhysical, 40, 7), sg);
    rn.beginCycle(0);
    // Far more renames than the 40-register storage budget.
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(rn.canRename(RegClass::Int));
        auto d = rn.renameDest(intReg(i % 32), 1000 + i);
        (void)d;
    }
}

TEST(VirtualPhysical, StorageClaimedAtWritebackOnly)
{
    StatGroup sg;
    RenameUnit rn(RenameConfig::of(Scheme::VirtualPhysical, 64, 7), sg);
    rn.beginCycle(0);
    EXPECT_EQ(rn.storageInUse(RegClass::Int), 32u); // arch state

    auto d = rn.renameDest(intReg(1), 5000);
    EXPECT_EQ(rn.storageInUse(RegClass::Int), 32u); // not yet
    EXPECT_TRUE(rn.writeback(intReg(1), d.preg, d.gen, 5000));
    EXPECT_EQ(rn.storageInUse(RegClass::Int), 33u);
    rn.checkInvariants();
}

TEST(VirtualPhysical, WritebackStallsWhenStorageExhausted)
{
    StatGroup sg;
    // 40 registers, reserve 4: non-privileged writebacks may use 36.
    auto cfg = RenameConfig::of(Scheme::VirtualPhysical, 40, 7);
    RenameUnit rn(cfg, sg);
    rn.beginCycle(0);

    std::vector<RenameUnit::DestRename> ds;
    for (int i = 0; i < 10; ++i)
        ds.push_back(rn.renameDest(intReg(i), 5000 + i));
    // Fill storage to the non-privileged limit (32 arch + 4 = 36).
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(rn.writeback(intReg(i), ds[i].preg, ds[i].gen,
                                 5000 + i, /*privileged=*/false));
    // Next non-privileged writeback must stall...
    EXPECT_FALSE(rn.writeback(intReg(4), ds[4].preg, ds[4].gen,
                              5004, /*privileged=*/false));
    EXPECT_GT(sg.scalarValue("vp.writebackStalls"), 0.0);
    // ...but a privileged one (near the ROB head) may drain.
    EXPECT_TRUE(rn.writeback(intReg(4), ds[4].preg, ds[4].gen, 5004,
                             /*privileged=*/true));
    rn.checkInvariants();
}

TEST(VirtualPhysical, InlinedValueNeverClaimsStorage)
{
    StatGroup sg;
    RenameUnit rn(
        RenameConfig::of(Scheme::VirtualPhysicalPlusPri, 64, 7), sg);
    rn.beginCycle(0);

    const unsigned before = rn.storageInUse(RegClass::Int);
    auto d = rn.renameDest(intReg(2), 17); // narrow
    EXPECT_TRUE(rn.writeback(intReg(2), d.preg, d.gen, 17));
    // Inlined into the map and freed: storage use unchanged.
    EXPECT_EQ(rn.storageInUse(RegClass::Int), before);
    EXPECT_TRUE(rn.mapEntry(intReg(2)).imm);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, d.preg));
    EXPECT_EQ(sg.scalarValue("vp.storageClaims"), 0.0);
    rn.checkInvariants();
}

TEST(VirtualPhysical, RetriedWritebackSucceedsAfterFree)
{
    StatGroup sg;
    auto cfg = RenameConfig::of(Scheme::VirtualPhysical, 40, 7);
    RenameUnit rn(cfg, sg);
    rn.beginCycle(0);

    std::vector<RenameUnit::DestRename> ds;
    for (int i = 0; i < 6; ++i)
        ds.push_back(rn.renameDest(intReg(i), 5000 + i));
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(rn.writeback(intReg(i), ds[i].preg, ds[i].gen,
                                 5000 + i, false));
    ASSERT_FALSE(rn.writeback(intReg(4), ds[4].preg, ds[4].gen,
                              5004, false));
    // Free one: redefine r0 and commit the redefiner.
    auto w = rn.renameDest(intReg(0), 9000);
    rn.commitDest(RegClass::Int, w.prev, w.prevGen);
    // Retry succeeds now.
    EXPECT_TRUE(rn.writeback(intReg(4), ds[4].preg, ds[4].gen, 5004,
                             false));
    rn.checkInvariants();
}

TEST(VirtualPhysicalCore, EndToEndRunsAndBeatsTightBase)
{
    using namespace pri::core;
    workload::SyntheticProgram prog(
        workload::profileByName("gzip"), 3);

    auto run = [&](const RenameConfig &rc) {
        StatGroup stats;
        OutOfOrderCore cpu(CoreConfig::fourWide(rc), prog, stats);
        cpu.run(5000);
        cpu.beginMeasurement();
        cpu.run(20000);
        cpu.checkInvariants();
        return cpu.ipc();
    };

    // At a tight 48-register budget, removing the rename-time stall
    // must help a register-bound workload.
    const double base = run(RenameConfig::of(Scheme::Base, 48, 7));
    const double vp = run(RenameConfig::of(Scheme::VirtualPhysical, 48, 7));
    const double vp_pri =
        run(RenameConfig::of(Scheme::VirtualPhysicalPlusPri, 48, 7));
    const double inf = run(RenameConfig::of(Scheme::InfinitePregs, 64, 7));
    EXPECT_GT(vp, base);
    EXPECT_GE(vp_pri, vp * 0.98);
    EXPECT_LE(vp, inf * 1.02);
    EXPECT_LE(vp_pri, inf * 1.02);
}

TEST(VirtualPhysicalCore, StorageNeverExceedsBudget)
{
    using namespace pri::core;
    workload::SyntheticProgram prog(
        workload::profileByName("mcf"), 7);
    StatGroup stats;
    OutOfOrderCore cpu(
        CoreConfig::fourWide(RenameConfig::of(Scheme::VirtualPhysical, 48, 7)),
        prog, stats);
    cpu.run(3000);
    cpu.beginMeasurement();
    cpu.run(12000);
    // Average storage occupancy is bounded by the budget (the
    // invariant checker verifies the instantaneous bound).
    EXPECT_LE(cpu.avgIntOccupancy(), 48.0);
    cpu.checkInvariants();
}

} // namespace
} // namespace pri::rename
