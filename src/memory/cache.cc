#include "cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace pri::memory
{

Cache::Cache(const CacheParams &params) : prm(params)
{
    PRI_ASSERT(isPow2(prm.lineBytes));
    PRI_ASSERT(prm.assoc >= 1);
    numSets = static_cast<unsigned>(
        prm.sizeBytes / (uint64_t{prm.lineBytes} * prm.assoc));
    PRI_ASSERT(numSets >= 1 && isPow2(numSets),
               "cache geometry must give a power-of-two set count");
    lines.resize(size_t{numSets} * prm.assoc);
}

uint64_t
Cache::lineIndex(uint64_t addr) const
{
    return (addr / prm.lineBytes) & (numSets - 1);
}

uint64_t
Cache::tagOf(uint64_t addr) const
{
    return (addr / prm.lineBytes) / numSets;
}

bool
Cache::access(uint64_t addr)
{
    const uint64_t set = lineIndex(addr);
    const uint64_t tag = tagOf(addr);
    Line *base = &lines[set * prm.assoc];
    ++stamp;

    Line *victim = base;
    for (unsigned w = 0; w < prm.assoc; ++w) {
        Line &ln = base[w];
        if (ln.valid && ln.tag == tag) {
            ln.lruStamp = stamp;
            ++nHits;
            return true;
        }
        if (!ln.valid) {
            victim = &ln;
        } else if (victim->valid &&
                   ln.lruStamp < victim->lruStamp) {
            victim = &ln;
        }
    }
    ++nMisses;
    victim->valid = true;
    victim->tag = tag;
    victim->lruStamp = stamp;
    return false;
}

bool
Cache::probe(uint64_t addr) const
{
    const uint64_t set = lineIndex(addr);
    const uint64_t tag = tagOf(addr);
    const Line *base = &lines[set * prm.assoc];
    for (unsigned w = 0; w < prm.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::exportStats(StatGroup &stats, const std::string &prefix) const
{
    stats.scalar(prefix + ".hits").set(static_cast<double>(nHits));
    stats.scalar(prefix + ".misses")
        .set(static_cast<double>(nMisses));
    const uint64_t total = nHits + nMisses;
    stats.scalar(prefix + ".missRate")
        .set(total ? static_cast<double>(nMisses) / total : 0.0);
}

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params)
    : prm(params), il1_(params.il1), dl1_(params.dl1), l2_(params.l2)
{
}

unsigned
MemoryHierarchy::dataAccess(uint64_t addr, bool write)
{
    (void)write; // write-allocate: same fill behaviour
    unsigned lat = prm.dl1.latency;
    if (dl1_.access(addr))
        return lat;
    lat += prm.l2.latency;
    if (l2_.access(addr))
        return lat;
    return lat + prm.memLatency;
}

unsigned
MemoryHierarchy::instAccess(uint64_t addr)
{
    unsigned lat = prm.il1.latency;
    if (il1_.access(addr))
        return lat;
    lat += prm.l2.latency;
    if (l2_.access(addr))
        return lat;
    return lat + prm.memLatency;
}

void
MemoryHierarchy::exportStats(StatGroup &stats) const
{
    il1_.exportStats(stats, "mem.il1");
    dl1_.exportStats(stats, "mem.dl1");
    l2_.exportStats(stats, "mem.l2");
}

} // namespace pri::memory
