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

MemoryHierarchy::MemoryHierarchy() : il1_(kIl1), dl1_(kDl1), l2_(kL2)
{
}

unsigned
MemoryHierarchy::dataAccess(uint64_t addr)
{
    unsigned lat = kDl1.latency;
    if (dl1_.access(addr))
        return lat;
    lat += kL2.latency;
    if (l2_.access(addr))
        return lat;
    return lat + kMemLatency;
}

unsigned
MemoryHierarchy::instAccess(uint64_t addr)
{
    unsigned lat = kIl1.latency;
    if (il1_.access(addr))
        return lat;
    lat += kL2.latency;
    if (l2_.access(addr))
        return lat;
    return lat + kMemLatency;
}

} // namespace pri::memory
