/**
 * @file
 * Fixed-capacity branch-checkpoint pool.
 *
 * Real machines version front-end recovery state in a small
 * hardware structure instead of copying it with every instruction;
 * this pool models that. Each fetched branch allocates one
 * pre-allocated slot and carries only an 8-byte index+generation
 * reference (CkptRef) through the fetch queue and the ROB. Slots
 * hold the walker checkpoint (with reusable, grow-once stack
 * storage), the shrunken predictor snapshot, and the speculative-
 * architectural-state journal position. Slots are released when the
 * branch resolves (either outcome) or is squashed; pool exhaustion
 * stalls fetch, as it would in hardware.
 *
 * Slots are allocated in fetch order and the pool is a circular
 * window [head, tail): releases in the middle (branches resolve out
 * of order) mark the slot dead, and the window edges advance past
 * dead slots. Every slot in the window belongs to a branch still in
 * the fetch queue or ROB, so a capacity of robSize + fetchQueueSize
 * can never fill — the default sizing, under which the pool never
 * stalls fetch and so never changes timing.
 */

#ifndef PRI_CORE_CHECKPOINT_POOL_HH
#define PRI_CORE_CHECKPOINT_POOL_HH

#include <cstdint>
#include <vector>

#include "branch/predictor.hh"
#include "common/logging.hh"
#include "workload/walker.hh"

namespace pri::core
{

/** Index+generation reference to a pooled checkpoint slot. */
struct CkptRef
{
    static constexpr uint32_t kNoSlot = ~uint32_t{0};

    uint32_t idx = kNoSlot;
    uint32_t gen = 0;

    bool valid() const { return idx != kNoSlot; }
};

/** One pooled checkpoint: everything a mispredict restore needs. */
struct CheckpointSlot
{
    /** archSeq value of a slot whose branch has not renamed yet. */
    static constexpr uint64_t kUnrenamed = ~uint64_t{0};

    workload::WalkerCkpt walker; ///< reusable stack storage
    branch::PredictorSnapshot bp;
    /** Speculative-arch undo-journal position, set at rename. */
    uint64_t archSeq = kUnrenamed;
    uint32_t gen = 1; ///< bumped on release; stale refs panic
    bool live = false;
};

class CheckpointPool
{
  public:
    explicit CheckpointPool(unsigned capacity) : slots(capacity)
    {
        PRI_ASSERT(capacity > 0, "checkpoint pool needs a slot");
    }

    unsigned capacity() const
    {
        return static_cast<unsigned>(slots.size());
    }

    /** No slot available: fetch must stall. */
    bool full() const { return used == slots.size(); }

    bool empty() const { return liveCount == 0; }
    unsigned liveSlots() const { return liveCount; }

    CkptRef
    allocate()
    {
        PRI_ASSERT(!full(), "checkpoint pool overflow");
        CheckpointSlot &s = slots[tail];
        PRI_ASSERT(!s.live, "allocating a live checkpoint slot");
        s.live = true;
        s.archSeq = CheckpointSlot::kUnrenamed;
        const CkptRef ref{tail, s.gen};
        tail = (tail + 1) % capacity();
        ++used;
        ++liveCount;
        return ref;
    }

    CheckpointSlot &
    get(CkptRef ref)
    {
        CheckpointSlot &s = slots[ref.idx];
        PRI_ASSERT(s.live && s.gen == ref.gen,
                   "stale checkpoint reference");
        return s;
    }

    /**
     * Release a slot. The generation check catches double frees and
     * references that survived a squash. Window edges advance past
     * dead slots so the capacity is reclaimed.
     */
    void
    release(CkptRef ref)
    {
        CheckpointSlot &s = slots[ref.idx];
        PRI_ASSERT(s.live && s.gen == ref.gen,
                   "checkpoint double-free or stale reference");
        s.live = false;
        ++s.gen;
        --liveCount;
        while (used > 0 && !slots[head].live) {
            head = (head + 1) % capacity();
            --used;
        }
        while (used > 0 &&
               !slots[(tail + capacity() - 1) % capacity()].live) {
            tail = (tail + capacity() - 1) % capacity();
            --used;
        }
    }

    /** Oldest live checkpoint (creation order), for journal trims. */
    const CheckpointSlot &
    oldest() const
    {
        PRI_ASSERT(liveCount > 0, "oldest() on an empty pool");
        return slots[head];
    }

  private:
    std::vector<CheckpointSlot> slots;
    uint32_t head = 0;      ///< oldest slot still in the window
    uint32_t tail = 0;      ///< next slot to allocate
    uint32_t used = 0;      ///< window size (incl. dead interior)
    unsigned liveCount = 0; ///< live slots in the window
};

} // namespace pri::core

#endif // PRI_CORE_CHECKPOINT_POOL_HH
