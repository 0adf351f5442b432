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
#include <vector>

namespace pri::memory
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    uint64_t sizeBytes;
    unsigned assoc;
    unsigned lineBytes;
    unsigned latency; ///< cycles added when this level hits
};

// Paper Table 1's hierarchy, shared by both machines.
constexpr CacheParams kIl1{32 * 1024, 2, 32, 2};
constexpr CacheParams kDl1{32 * 1024, 4, 16, 2};
constexpr CacheParams kL2{512 * 1024, 4, 64, 12};
constexpr unsigned kMemLatency = 150; ///< cycles beyond an L2 miss

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

    uint64_t hits() const { return nHits; }
    uint64_t misses() const { return nMisses; }

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

/**
 * kIl1 + kDl1 + unified kL2 + memory. Latency is cumulative down the
 * hierarchy: DL1 hit = 2, L2 hit = 2+12, memory = 2+12+150.
 */
class MemoryHierarchy
{
  public:
    MemoryHierarchy();

    /**
     * Data-side access (loads, and stores at commit: write-allocate
     * fills the same way); returns total latency in cycles.
     */
    unsigned dataAccess(uint64_t addr);

    /** Instruction fetch access; returns total latency in cycles. */
    unsigned instAccess(uint64_t addr);

    Cache &dl1() { return dl1_; }
    Cache &l2() { return l2_; }

  private:
    Cache il1_;
    Cache dl1_;
    Cache l2_;
};

} // namespace pri::memory

#endif // PRI_MEMORY_CACHE_HH
