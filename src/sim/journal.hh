/**
 * @file
 * SweepJournal: the one result cache. A crash-tolerant manifest of
 * completed simulation points, keyed by paramsHash().
 *
 * Every successfully simulated RunParams is appended to the journal
 * file as one self-contained PRIJ3 line (sim/result_codec.hh: all
 * RunResult fields, doubles in hexfloat so they round-trip
 * bit-exactly, the stats report with newlines/tabs escaped) and
 * flushed immediately. On construction the journal loads every
 * well-formed line of an existing file, so a sweep that died —
 * SIGKILL, OOM, power, a crashed sibling — can be rerun with the
 * same flags and only the missing points simulate, and a warm rerun
 * of a finished sweep simulates nothing. Either way the report is
 * byte-identical to an uninterrupted run because journaled results
 * are bit-exact.
 *
 * Storage: the file's bytes plus an index. Opening reads the whole
 * file in one read into a buffer sized from the file, validates
 * each line in place (codec::validateResultLine) and indexes its
 * key to the line's byte span; the first valid line of a key wins.
 * lookup() parses a line only when it is hit, so a warm rerun pays
 * one report unescape per point it serves. record() appends the
 * line it writes to the file to the buffer as well, so loaded and
 * recorded points share one representation.
 *
 * A line torn mid-write by the crash simply fails validation (field
 * count, tag, sentinel, number forms) and is skipped: that point
 * reruns. If the file ends in such a fragment, the first append of
 * the resumed run starts a fresh line, so the fragment cannot
 * swallow it. Appends take a mutex (workers finish out of order)
 * and the file is append-only, so two processes must not share one
 * journal.
 *
 * Test hook: PRI_JOURNAL_KILL_AFTER=<k> SIGKILLs the process right
 * after the k-th append, giving CI a deterministic "sweep died
 * midway" to resume from.
 */

#ifndef PRI_SIM_JOURNAL_HH
#define PRI_SIM_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/simulation.hh"

namespace pri::sim
{

/** Append-only manifest of completed sweep points (see @file). */
class SweepJournal
{
  public:
    /**
     * Open (creating if absent) the journal at @p path and index
     * every valid completed point. Empty path = disabled journal
     * (lookup always misses, record is a no-op).
     */
    explicit SweepJournal(std::string path);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    bool enabled() const { return !filePath.empty(); }

    /** Result for @p key from a previous (or this) run, if any. */
    bool lookup(uint64_t key, RunResult &out) const;

    /** Persist one completed point (thread-safe, flushed). */
    void record(uint64_t key, const RunResult &result);

    /** Points loaded from the pre-existing file. */
    size_t loadedPoints() const { return loaded; }

    /** Points appended by this process. */
    size_t
    appendedPoints() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return appended;
    }

  private:
    /** A line's place in `bytes`, newline excluded. Offsets, not
     *  pointers: record() may reallocate `bytes`, so nothing points
     *  into it outside the mutex. */
    struct Span
    {
        size_t offset;
        size_t length;
    };

    void load();

    std::string filePath;
    std::FILE *file = nullptr;
    mutable std::mutex mu;
    /** The file's contents: as read at open, then every append. */
    std::string bytes;
    /** Key -> span of its first valid line in `bytes`. */
    std::unordered_map<uint64_t, Span> index;
    size_t loaded = 0;
    size_t appended = 0;
    /** The file ended in a torn fragment: terminate it before the
     *  first append. */
    bool tornTail = false;
    /** PRI_JOURNAL_KILL_AFTER (0 = off): see @file. */
    size_t killAfter = 0;
};

} // namespace pri::sim

#endif // PRI_SIM_JOURNAL_HH
