/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * The timing core only needs hit/miss decisions and latencies; data
 * values flow through the register dataflow, not the cache. Fills
 * happen immediately on miss (no MSHR occupancy modelling — loads are
 * non-blocking and their miss latency is charged to the dependent
 * chain, which is the effect the paper's register-pressure story
 * depends on).
 */

#ifndef PRI_MEMORY_CACHE_HH
#define PRI_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace pri::memory
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 2;
    unsigned lineBytes = 32;
    unsigned latency = 2; ///< cycles added when this level hits
};

/** One level of set-associative cache with true-LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up @p addr; on miss, fill the line (evicting LRU).
     * @return true on hit.
     */
    bool access(uint64_t addr);

    /** Look up without changing any state. */
    bool probe(uint64_t addr) const;

    const CacheParams &params() const { return prm; }
    uint64_t hits() const { return nHits; }
    uint64_t misses() const { return nMisses; }

    /** Register hit/miss counters into @p stats under @p prefix. */
    void exportStats(StatGroup &stats, const std::string &prefix) const;

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lruStamp = 0;
        bool valid = false;
    };

    uint64_t lineIndex(uint64_t addr) const;
    uint64_t tagOf(uint64_t addr) const;

    CacheParams prm;
    unsigned numSets;
    std::vector<Line> lines; // numSets * assoc, set-major
    uint64_t stamp = 0;
    uint64_t nHits = 0;
    uint64_t nMisses = 0;
};

/** Latencies of the three-level hierarchy in paper Table 1. */
struct HierarchyParams
{
    CacheParams il1{"il1", 32 * 1024, 2, 32, 2};
    CacheParams dl1{"dl1", 32 * 1024, 4, 16, 2};
    CacheParams l2{"l2", 512 * 1024, 4, 64, 12};
    unsigned memLatency = 150;
};

/**
 * IL1 + DL1 + unified L2 + memory. Latency is cumulative down the
 * hierarchy: DL1 hit = 2, L2 hit = 2+12, memory = 2+12+150.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params = {});

    /** Data-side access; returns total latency in cycles. */
    unsigned dataAccess(uint64_t addr, bool write);

    /** Instruction fetch access; returns total latency in cycles. */
    unsigned instAccess(uint64_t addr);

    Cache &il1() { return il1_; }
    Cache &dl1() { return dl1_; }
    Cache &l2() { return l2_; }
    const HierarchyParams &params() const { return prm; }

    void exportStats(StatGroup &stats) const;

  private:
    HierarchyParams prm;
    Cache il1_;
    Cache dl1_;
    Cache l2_;
};

} // namespace pri::memory

#endif // PRI_MEMORY_CACHE_HH
