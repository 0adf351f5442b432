/**
 * @file
 * Property-style parameterized tests over cache geometries: LRU
 * working-set containment, miss-rate bounds, and hierarchy latency
 * composition must hold for every geometry, not just the paper's.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/hashing.hh"
#include "memory/cache.hh"

namespace pri::memory
{
namespace
{

// (sizeBytes, assoc, lineBytes)
using Geometry = std::tuple<unsigned, unsigned, unsigned>;

class CacheGeometryTest : public ::testing::TestWithParam<Geometry>
{
  protected:
    CacheParams
    params() const
    {
        const auto [size, assoc, line] = GetParam();
        return CacheParams{size, assoc, line, 1};
    }
};

TEST_P(CacheGeometryTest, ResidentWorkingSetAlwaysHits)
{
    Cache c(params());
    const auto p = params();
    // A working set of half the cache, touched twice: second pass
    // must be all hits under LRU regardless of geometry.
    const uint64_t ws = p.sizeBytes / 2;
    for (uint64_t a = 0; a < ws; a += p.lineBytes)
        c.access(a);
    const uint64_t h0 = c.hits();
    for (uint64_t a = 0; a < ws; a += p.lineBytes)
        EXPECT_TRUE(c.access(a));
    EXPECT_EQ(c.hits() - h0, ws / p.lineBytes);
}

TEST_P(CacheGeometryTest, MissCountBoundedByCompulsory)
{
    Cache c(params());
    const auto p = params();
    // Touch N distinct lines once each: misses == N exactly
    // (no line can evict itself).
    const unsigned n = 64;
    for (unsigned i = 0; i < n; ++i)
        c.access(uint64_t{i} * p.lineBytes * 7919); // spread sets
    EXPECT_GE(c.misses(), 1u);
    EXPECT_LE(c.misses(), n);
}

TEST_P(CacheGeometryTest, RandomStressMatchesReferenceModel)
{
    // Cross-check against a brute-force LRU reference model.
    Cache c(params());
    const auto p = params();
    const unsigned sets =
        p.sizeBytes / (p.lineBytes * p.assoc);

    struct RefLine
    {
        uint64_t tag = 0;
        uint64_t stamp = 0;
        bool valid = false;
    };
    std::vector<RefLine> ref(size_t{sets} * p.assoc);
    uint64_t stamp = 0;

    auto ref_access = [&](uint64_t addr) {
        const uint64_t line = addr / p.lineBytes;
        const uint64_t set = line % sets;
        const uint64_t tag = line / sets;
        RefLine *base = &ref[set * p.assoc];
        ++stamp;
        for (unsigned w = 0; w < p.assoc; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                base[w].stamp = stamp;
                return true;
            }
        }
        RefLine *victim = base;
        for (unsigned w = 0; w < p.assoc; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].stamp < victim->stamp)
                victim = &base[w];
        }
        victim->valid = true;
        victim->tag = tag;
        victim->stamp = stamp;
        return false;
    };

    for (int i = 0; i < 20000; ++i) {
        // Skewed address stream over 4x the cache size.
        const uint64_t addr =
            hashRange(uint64_t{p.sizeBytes} * 4, 11, i) & ~7ull;
        EXPECT_EQ(c.access(addr), ref_access(addr)) << "at " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(Geometry{1024, 1, 16},    // direct mapped
                      Geometry{4096, 2, 32},
                      Geometry{32768, 4, 16},   // the paper's DL1
                      Geometry{32768, 2, 32},   // the paper's IL1
                      Geometry{524288, 4, 64},  // the paper's L2
                      Geometry{2048, 8, 16}));  // highly associative

} // namespace
} // namespace pri::memory
