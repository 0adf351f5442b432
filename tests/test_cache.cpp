/**
 * @file
 * Tests for the set-associative cache and the three-level hierarchy
 * (paper Table 1 geometry and latencies).
 */

#include <gtest/gtest.h>

#include "memory/cache.hh"

namespace pri::memory
{
namespace
{

CacheParams
tiny()
{
    // 4 sets x 2 ways x 16B lines = 128 bytes.
    return CacheParams{128, 2, 16, 1};
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x10f)); // same 16B line
    EXPECT_FALSE(c.access(0x110)); // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEvictionWithinSet)
{
    Cache c(tiny());
    // Three lines mapping to the same set (set stride = 64 bytes).
    EXPECT_FALSE(c.access(0x000));
    EXPECT_FALSE(c.access(0x040));
    EXPECT_TRUE(c.access(0x000));  // touch to make 0x040 the LRU
    EXPECT_FALSE(c.access(0x080)); // evicts 0x040
    EXPECT_TRUE(c.access(0x000));
    EXPECT_FALSE(c.access(0x040)); // was evicted
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Cache c(tiny());
    EXPECT_FALSE(c.probe(0x200));
    EXPECT_FALSE(c.probe(0x200)); // still cold
    c.access(0x200);
    EXPECT_TRUE(c.probe(0x200));
    EXPECT_EQ(c.hits(), 0u); // probes don't count
}

TEST(Cache, PaperGeometriesConstruct)
{
    Cache il1(kIl1);
    Cache dl1(kDl1);
    Cache l2(kL2);
    EXPECT_FALSE(il1.access(0x1000));
    EXPECT_FALSE(dl1.access(0x1000));
    EXPECT_FALSE(l2.access(0x1000));
}

TEST(Cache, CapacitySweepEvictsExactly)
{
    // Fill a direct-mapped-equivalent working set twice the cache
    // size: second pass must miss everywhere (LRU, sequential).
    Cache c(CacheParams{1024, 1, 16, 1});
    for (uint64_t a = 0; a < 2048; a += 16)
        c.access(a);
    const uint64_t misses_before = c.misses();
    for (uint64_t a = 0; a < 2048; a += 16)
        c.access(a);
    EXPECT_EQ(c.misses() - misses_before, 128u);
}

TEST(Hierarchy, CumulativeLatencies)
{
    MemoryHierarchy mem;
    // Cold: DL1 miss, L2 miss -> memory.
    EXPECT_EQ(mem.dataAccess(0x5000),
              kDl1.latency + kL2.latency + kMemLatency);
    // Warm: DL1 hit.
    EXPECT_EQ(mem.dataAccess(0x5000), kDl1.latency);
}

TEST(Hierarchy, L2HitAfterDl1Eviction)
{
    MemoryHierarchy mem;
    mem.dataAccess(0x5000);
    // Evict 0x5000 from DL1 by sweeping > 32KB of conflicting
    // lines; L2 (512KB) keeps everything.
    for (uint64_t a = 0x100000; a < 0x100000 + 64 * 1024; a += 16)
        mem.dataAccess(a);
    EXPECT_EQ(mem.dataAccess(0x5000), kDl1.latency + kL2.latency);
}

TEST(Hierarchy, InstAndDataSidesAreSeparateL1s)
{
    MemoryHierarchy mem;
    mem.instAccess(0x8000);
    // Data side still cold for the same address, but L2 now has it.
    EXPECT_EQ(mem.dataAccess(0x8000), kDl1.latency + kL2.latency);
    EXPECT_EQ(mem.instAccess(0x8000), kIl1.latency);
}

} // namespace
} // namespace pri::memory
