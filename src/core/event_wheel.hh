/**
 * @file
 * SlotWheel: an intrusive timing wheel over a fixed set of nodes.
 *
 * The core keeps two timing wheels keyed by cycle: execute/retire
 * events and timed scheduler wakeups. On both, a ROB slot has at
 * most one pending entry at a time (an instruction is in exactly one
 * of select -> ExeStart -> ExeComplete -> Retire, and a waiting entry
 * holds at most one wakeup). So the wheel links the ROB slots
 * themselves: one link record per slot plus a head/tail pair per
 * (bucket, list). The footprint is fixed at construction and does
 * not depend on how events cluster in time. A wheel of event
 * vectors, by contrast, must reserve its worst case in every bucket
 * (1024 buckets x kRobSize events) to keep the cycle loop free of
 * allocation.
 *
 * Each bucket holds `lists` independent FIFO lists, so a caller can
 * drain one bucket in several passes (the core runs completions
 * before same-cycle execution starts). Within a list, nodes pop in
 * the order they were pushed. unlink() is O(1): squash removes a dead
 * slot's pending entry eagerly, so nothing stale is ever drained.
 */

#ifndef PRI_CORE_EVENT_WHEEL_HH
#define PRI_CORE_EVENT_WHEEL_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace pri::core
{

class SlotWheel
{
  public:
    /** Buckets; a push lands less than this many cycles ahead. */
    static constexpr unsigned kHorizon = 1024;
    static constexpr uint64_t kIdle = ~uint64_t{0};

    SlotWheel(unsigned nodes, unsigned lists)
        : lists_(lists), head_(kHorizon * lists, -1),
          tail_(kHorizon * lists, -1), node_(nodes)
    {
    }

    bool pending(uint32_t n) const { return node_[n].at != kIdle; }
    /** Cycle @p n is due (kIdle when not pending). */
    uint64_t at(uint32_t n) const { return node_[n].at; }
    /** Caller tag given to the last push() of @p n. */
    uint8_t tag(uint32_t n) const { return node_[n].tag; }

    /** Append @p n to list @p list of cycle @p when's bucket. */
    void
    push(uint32_t n, uint64_t when, unsigned list, uint8_t tag = 0)
    {
        Node &x = node_[n];
        PRI_ASSERT(x.at == kIdle, "slot already pending on the wheel");
        x.at = when;
        x.list = static_cast<uint8_t>(list);
        x.tag = tag;
        const unsigned l = listOf(when, list);
        const int32_t self = static_cast<int32_t>(n);
        x.prev = tail_[l];
        x.next = -1;
        if (tail_[l] != -1)
            node_[tail_[l]].next = self;
        else
            head_[l] = self;
        tail_[l] = self;
    }

    /** Remove pending node @p n from its list. */
    void
    unlink(uint32_t n)
    {
        Node &x = node_[n];
        const unsigned l = listOf(x.at, x.list);
        if (x.prev != -1)
            node_[x.prev].next = x.next;
        else
            head_[l] = x.next;
        if (x.next != -1)
            node_[x.next].prev = x.prev;
        else
            tail_[l] = x.prev;
        x.next = x.prev = -1;
        x.at = kIdle;
    }

    /** Pop the oldest node of list @p list in cycle @p now's bucket;
     *  -1 when that list is empty. */
    int32_t
    pop(uint64_t now, unsigned list)
    {
        const int32_t n = head_[listOf(now, list)];
        if (n != -1)
            unlink(static_cast<uint32_t>(n));
        return n;
    }

    /**
     * Audit the links (panics on a broken list or a node in the wrong
     * bucket) and call @p visit(node) for every pending node. Returns
     * the number visited, which equals the number of pending nodes.
     * Most lists are empty, so a block of kAuditBlock lists whose
     * heads and tails are all -1 is skipped in one test; a list with
     * only one end set is still walked and caught.
     */
    template <class Visit>
    unsigned
    audit(Visit &&visit) const
    {
        unsigned linked = 0;
        for (unsigned b = 0; b < head_.size(); b += kAuditBlock) {
            int32_t ends = -1;
            for (unsigned l = b; l < b + kAuditBlock; ++l)
                ends &= head_[l] & tail_[l];
            if (ends == -1)
                continue;
            for (unsigned l = b; l < b + kAuditBlock; ++l) {
                int32_t prev = -1;
                for (int32_t n = head_[l]; n != -1;
                     n = node_[n].next) {
                    const Node &x = node_[n];
                    PRI_ASSERT(x.at != kIdle && x.prev == prev &&
                                   listOf(x.at, x.list) == l,
                               "timing wheel list out of sync");
                    visit(static_cast<uint32_t>(n));
                    prev = n;
                    ++linked;
                }
                PRI_ASSERT(tail_[l] == prev,
                           "timing wheel tail out of sync");
            }
        }
        unsigned pending_nodes = 0;
        for (const Node &x : node_)
            pending_nodes += x.at != kIdle ? 1 : 0;
        PRI_ASSERT(linked == pending_nodes, "timing wheel leak");
        return linked;
    }

  private:
    /** Lists per audit() emptiness test; divides every list count. */
    static constexpr unsigned kAuditBlock = 16;
    static_assert(kHorizon % kAuditBlock == 0);

    struct Node
    {
        int32_t next = -1;
        int32_t prev = -1;
        uint64_t at = kIdle;
        uint8_t list = 0;
        uint8_t tag = 0;
    };

    unsigned
    listOf(uint64_t when, unsigned list) const
    {
        return static_cast<unsigned>(when % kHorizon) * lists_ + list;
    }

    unsigned lists_;
    std::vector<int32_t> head_;
    std::vector<int32_t> tail_;
    std::vector<Node> node_;
};

} // namespace pri::core

#endif // PRI_CORE_EVENT_WHEEL_HH
