/**
 * @file
 * Load/store queue.
 *
 * A circular buffer of in-flight memory operations. Addresses are
 * known at insertion (rename) — an oracle memory-dependence model
 * (DESIGN.md §5): loads forward from the youngest older store to the
 * same 8-byte word; there is no memory-order misspeculation.
 *
 * Forwarding queries are served by a per-word hash index: every
 * in-flight store is threaded onto an age-ordered chain for its
 * 8-byte word (walker sequence numbers are globally monotonic and
 * never rolled back, so tail-appends keep each chain sorted oldest to
 * youngest even across squashes and ring wraparound). `forwardHit` is
 * then a single hash probe plus one compare against the chain's
 * oldest store, instead of the legacy full-queue scan — which is kept
 * as `forwardHitLinear` so tests can cross-check the index. The index
 * is rewound eagerly: `commitHead` unlinks from the front of a chain,
 * `squashYounger` from the back, so no journal is needed.
 */

#ifndef PRI_CORE_LSQ_HH
#define PRI_CORE_LSQ_HH

#include <cstdint>
#include <vector>

#include "common/hashing.hh"
#include "common/logging.hh"
#include "faults/fault_spec.hh"

namespace pri::core
{

/** Load/store queue with oracle forwarding. */
class Lsq
{
  public:
    explicit Lsq(unsigned size)
        : entries(size), nodes(size),
          buckets(bucketCountFor(size), kNil)
    {
        freeNodes.reserve(size);
        for (unsigned i = size; i-- > 0;)
            freeNodes.push_back(static_cast<int32_t>(i));
    }

    bool full() const { return count == entries.size(); }
    unsigned occupancy() const { return count; }

    /** Insert a memory op at the tail; returns its slot index. */
    unsigned
    insert(uint64_t seq, uint64_t addr, bool is_store)
    {
        PRI_ASSERT(!full(), "LSQ overflow");
        const unsigned slot = tail;
        entries[slot] = Entry{seq, addr & ~uint64_t{7}, kNil, kNil,
                              kNil, is_store, true};
        if (is_store)
            attachStore(slot);
        tail = (tail + 1) % entries.size();
        ++count;
        return slot;
    }

    /**
     * True when an older in-flight store to the same 8-byte word
     * exists (store-to-load forwarding hit). One hash probe: the
     * chain head is the oldest in-flight store to the word, so it is
     * older than the load iff any store on the chain is.
     */
    bool
    forwardHit(uint64_t load_seq, uint64_t addr) const
    {
        const int32_t n = findNode(addr & ~uint64_t{7});
        return n != kNil &&
            entries[nodes[n].headSlot].seq < load_seq;
    }

    /** Reference implementation: full-queue scan (tests only). */
    bool
    forwardHitLinear(uint64_t load_seq, uint64_t addr) const
    {
        const uint64_t word = addr & ~uint64_t{7};
        for (unsigned i = 0, idx = head; i < count;
             ++i, idx = (idx + 1) % entries.size()) {
            const Entry &e = entries[idx];
            if (e.valid && e.isStore && e.seq < load_seq &&
                e.addr == word) {
                return true;
            }
        }
        return false;
    }

    /** Release the head entry (commit order). */
    void
    commitHead(uint64_t seq)
    {
        PRI_ASSERT(count > 0, "LSQ underflow");
        PRI_ASSERT(entries[head].valid && entries[head].seq == seq,
                   "LSQ commit out of order");
        if (entries[head].isStore)
            detachStore(head);
        entries[head].valid = false;
        head = (head + 1) % entries.size();
        --count;
    }

    /** Drop all entries younger than @p branch_seq (squash). */
    void
    squashYounger(uint64_t branch_seq)
    {
        while (count > 0) {
            const unsigned last =
                (tail + entries.size() - 1) % entries.size();
            if (!entries[last].valid ||
                entries[last].seq <= branch_seq) {
                break;
            }
            if (entries[last].isStore)
                detachStore(last);
            entries[last].valid = false;
            tail = last;
            --count;
        }
    }

    /**
     * Transient-fault hook (src/faults): corrupt the latched address
     * of one in-flight store, chosen by @p rnd. The store is
     * re-threaded onto the word chain for its corrupted address, so
     * the index stays structurally consistent — only forwarding
     * *behavior* goes wrong. Addresses carry no data values in this
     * oracle model, so the strike is timing-only and invisible to
     * the golden checker: the canonical silent-data-corruption site.
     * @return false when no store is in flight (the strike lands in
     *         empty silicon and is trivially masked).
     */
    bool
    applyFault(faults::FaultMutation mutation, uint64_t rnd)
    {
        unsigned n_stores = 0;
        for (unsigned i = 0, idx = head; i < count;
             ++i, idx = (idx + 1) % entries.size()) {
            if (entries[idx].valid && entries[idx].isStore)
                ++n_stores;
        }
        if (n_stores == 0)
            return false;
        uint64_t pick = hashRange(n_stores, rnd, 0x6c73712dULL);
        unsigned slot = head;
        for (unsigned i = 0, idx = head; i < count;
             ++i, idx = (idx + 1) % entries.size()) {
            if (entries[idx].valid && entries[idx].isStore) {
                if (pick == 0) {
                    slot = idx;
                    break;
                }
                --pick;
            }
        }
        Entry &e = entries[slot];
        detachStore(slot);
        switch (mutation) {
          case faults::FaultMutation::BitFlip:
            // Flip an address bit above the word offset: the stored
            // addr is word-aligned and probes mask with &~7, so a
            // sub-word flip would be masked by construction.
            e.addr ^= uint64_t{1}
                << (3 + hashRange(29, rnd, 0x666c6970ULL));
            break;
          case faults::FaultMutation::StaleValue:
            // A latched old word index: alias the adjacent word.
            e.addr += 8;
            break;
          case faults::FaultMutation::ZeroEntry:
            e.addr = 0;
            break;
        }
        attachStore(slot);
        return true;
    }

  private:
    static constexpr int32_t kNil = -1;

    struct Entry
    {
        uint64_t seq = 0;
        uint64_t addr = 0;
        // Word-chain threading (stores only).
        int32_t node = kNil;     ///< owning word-chain node
        int32_t wordNext = kNil; ///< next-younger store, same word
        int32_t wordPrev = kNil; ///< next-older store, same word
        bool isStore = false;
        bool valid = false;
    };

    /** One live 8-byte word with at least one in-flight store. */
    struct WordNode
    {
        uint64_t word = 0;
        int32_t headSlot = kNil; ///< oldest store to the word
        int32_t tailSlot = kNil; ///< youngest store to the word
        int32_t bucketNext = kNil;
    };

    /** Power-of-two bucket count, at least 2x the queue size. */
    static unsigned
    bucketCountFor(unsigned size)
    {
        unsigned n = 2;
        while (n < 2 * size)
            n <<= 1;
        return n;
    }

    unsigned
    bucketOf(uint64_t word) const
    {
        return static_cast<unsigned>(
            splitMix64(word) & (buckets.size() - 1));
    }

    int32_t
    findNode(uint64_t word) const
    {
        int32_t n = buckets[bucketOf(word)];
        while (n != kNil && nodes[n].word != word)
            n = nodes[n].bucketNext;
        return n;
    }

    void
    attachStore(unsigned slot)
    {
        Entry &e = entries[slot];
        int32_t n = findNode(e.addr);
        if (n == kNil) {
            PRI_ASSERT(!freeNodes.empty(), "LSQ word-node pool dry");
            n = freeNodes.back();
            freeNodes.pop_back();
            WordNode &w = nodes[n];
            w.word = e.addr;
            w.headSlot = kNil;
            w.tailSlot = kNil;
            const unsigned b = bucketOf(e.addr);
            w.bucketNext = buckets[b];
            buckets[b] = n;
        }
        WordNode &w = nodes[n];
        // Append at the tail: seq monotonicity keeps the chain
        // age-sorted, so the head stays the oldest store.
        e.node = n;
        e.wordPrev = w.tailSlot;
        e.wordNext = kNil;
        if (w.tailSlot != kNil)
            entries[w.tailSlot].wordNext =
                static_cast<int32_t>(slot);
        else
            w.headSlot = static_cast<int32_t>(slot);
        w.tailSlot = static_cast<int32_t>(slot);
    }

    void
    detachStore(unsigned slot)
    {
        Entry &e = entries[slot];
        PRI_ASSERT(e.node != kNil, "store missing from word index");
        WordNode &w = nodes[e.node];
        if (e.wordPrev != kNil)
            entries[e.wordPrev].wordNext = e.wordNext;
        else
            w.headSlot = e.wordNext;
        if (e.wordNext != kNil)
            entries[e.wordNext].wordPrev = e.wordPrev;
        else
            w.tailSlot = e.wordPrev;
        if (w.headSlot == kNil) {
            // Chain empty: return the node to the pool.
            const unsigned b = bucketOf(w.word);
            int32_t *link = &buckets[b];
            while (*link != e.node)
                link = &nodes[*link].bucketNext;
            *link = w.bucketNext;
            freeNodes.push_back(e.node);
        }
        e.node = kNil;
        e.wordNext = kNil;
        e.wordPrev = kNil;
    }

    std::vector<Entry> entries;
    std::vector<WordNode> nodes;     ///< fixed pool, one per slot
    std::vector<int32_t> freeNodes;  ///< unused pool indices
    std::vector<int32_t> buckets;    ///< hash heads (pow2 size)
    unsigned head = 0;
    unsigned tail = 0;
    unsigned count = 0;
};

} // namespace pri::core

#endif // PRI_CORE_LSQ_HH
