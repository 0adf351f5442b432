/**
 * @file
 * Tests for the RAM map table (paper §2.1), including the property
 * PRI needs from it: any number of logical registers can hold the
 * same inlined value at once.
 */

#include <gtest/gtest.h>

#include "rename/map_table.hh"

namespace pri::rename
{
namespace
{

TEST(MapEntry, Equality)
{
    EXPECT_EQ(MapEntry::makePreg(3), MapEntry::makePreg(3));
    EXPECT_FALSE(MapEntry::makePreg(3) == MapEntry::makePreg(4));
    EXPECT_EQ(MapEntry::makeImm(42), MapEntry::makeImm(42));
    EXPECT_FALSE(MapEntry::makeImm(42) == MapEntry::makeImm(43));
    EXPECT_FALSE(MapEntry::makeImm(3) == MapEntry::makePreg(3));
}

TEST(RamMapTable, IdentityInitialMapping)
{
    RamMapTable map;
    for (unsigned i = 0; i < isa::kNumLogicalRegs; ++i) {
        EXPECT_FALSE(map.read(i).imm);
        EXPECT_EQ(map.read(i).preg, i);
    }
}

TEST(RamMapTable, WriteAndRead)
{
    RamMapTable map;
    map.write(5, MapEntry::makePreg(40));
    EXPECT_EQ(map.read(5).preg, 40);
    map.write(5, MapEntry::makeImm(0x7f));
    EXPECT_TRUE(map.read(5).imm);
    EXPECT_EQ(map.read(5).value, 0x7fu);
}

TEST(RamMapTable, ImmediateModeCoexistsForManyLogicals)
{
    // The RAM map can hold the same inlined value for any number of
    // logical registers simultaneously. A CAM map, one entry per
    // physical register, could hold it for only one.
    RamMapTable map;
    for (unsigned i = 0; i < isa::kNumLogicalRegs; ++i)
        map.write(i, MapEntry::makeImm(0));
    for (unsigned i = 0; i < isa::kNumLogicalRegs; ++i) {
        EXPECT_TRUE(map.read(i).imm);
        EXPECT_EQ(map.read(i).value, 0u);
    }
}

} // namespace
} // namespace pri::rename
