/**
 * @file
 * Bounded undo journal: the storage behind pooled checkpointing.
 *
 * Instead of copying a whole structure at every checkpoint, mutators
 * append one undo record per destructive write and a checkpoint is
 * just the journal position (a 64-bit sequence number). Restoring a
 * checkpoint pops records in LIFO order, re-applying the saved old
 * values; releasing the oldest live checkpoint trims the dead prefix
 * so the buffer stays bounded by the in-flight window. The backing
 * vector grows once to the high-water mark and is never freed, so
 * steady-state operation performs no heap allocation.
 */

#ifndef PRI_COMMON_UNDO_JOURNAL_HH
#define PRI_COMMON_UNDO_JOURNAL_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace pri
{

template <typename Entry>
class UndoJournal
{
  public:
    /** Position after the most recent record (monotonic). */
    uint64_t
    seq() const
    {
        return base + (buf.size() - head);
    }

    /** Record the pre-write state of one destructive mutation. */
    void push(const Entry &e) { buf.push_back(e); }

    /**
     * Pop records newer than @p target, invoking @p undo on each in
     * LIFO order. @p target must be the seq() observed at a live
     * checkpoint — unwinding past trimmed history is a bug.
     */
    template <typename UndoFn>
    void
    unwindTo(uint64_t target, UndoFn &&undo)
    {
        PRI_ASSERT(target >= base, "unwind past trimmed history");
        while (seq() > target) {
            undo(buf.back());
            buf.pop_back();
        }
    }

    /**
     * Discard records no live checkpoint can unwind to (those with
     * seq <= @p min_seq). Compaction shifts in place; the vector's
     * capacity is retained, so trimming never allocates.
     */
    void
    trimTo(uint64_t min_seq)
    {
        if (min_seq <= base)
            return;
        PRI_ASSERT(min_seq <= seq(), "trim beyond journal head");
        head += static_cast<size_t>(min_seq - base);
        base = min_seq;
        if (head >= kCompactAt && head >= buf.size() - head) {
            buf.erase(buf.begin(),
                      buf.begin() + static_cast<ptrdiff_t>(head));
            head = 0;
        }
    }

    /**
     * Reserve enough for @p live_span live records plus the largest
     * dead prefix trimTo() tolerates before compacting, so a
     * correctly sized journal never reallocates after construction.
     */
    void
    reserveForLiveSpan(size_t live_span)
    {
        buf.reserve(live_span + 2 * kCompactAt);
    }

    static constexpr size_t kCompactAt = 1024;

  private:

    std::vector<Entry> buf;
    size_t head = 0;   ///< index of the oldest live record
    uint64_t base = 0; ///< seq represented by buf[head]
};

} // namespace pri

#endif // PRI_COMMON_UNDO_JOURNAL_HH
