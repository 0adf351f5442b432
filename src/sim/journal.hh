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
 * Storage: the file mapped read-only (mmap, MAP_PRIVATE |
 * MAP_POPULATE) plus an index. Opening parses every line once
 * (codec::parseResultFields) and indexes each key's first valid
 * line: its fields, a RunResult without its report, and a view of
 * the escaped report in the mapping. lookup() copies the fields and
 * unescapes the report, so a warm rerun pays one unescape per point
 * it serves and no parse. record() keeps the line it appends in a
 * store whose bytes never move and indexes it the same way, so
 * loaded and recorded points share one representation. An empty or
 * missing file maps nothing; a non-empty file that cannot be mapped
 * is fatal.
 *
 * A line torn mid-write by the crash simply fails to parse (field
 * count, tag, sentinel, number forms) and is skipped: that point
 * reruns. If the file ends in such a fragment, the first append of
 * the resumed run starts a fresh line, so the fragment cannot
 * swallow it. Appends take a mutex (workers finish out of order).
 * The file is append-only and mapped, so two processes must not
 * share one journal: a writer that truncated it would fault the
 * mapped reader.
 *
 * Test hook: PRI_JOURNAL_KILL_AFTER=<k> SIGKILLs the process right
 * after the k-th append, giving CI a deterministic "sweep died
 * midway" to resume from.
 */

#ifndef PRI_SIM_JOURNAL_HH
#define PRI_SIM_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "sim/simulation.hh"

namespace pri::sim
{

/** Deleter of SweepJournal's file mapping; the mapping's length
 *  rides along. */
struct UnmapJournal
{
    size_t size = 0;
    void operator()(const char *bytes) const;
};

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
    /** A key's first valid line, parsed: every RunResult field but
     *  the report, and the escaped report, a view into the mapping
     *  or the append store. */
    struct Entry
    {
        RunResult fields;
        std::string_view report;
    };

    void load();

    std::string filePath;
    std::FILE *file = nullptr;
    /** The file as it was at open, mapped read-only (null when it
     *  was empty or missing). */
    std::unique_ptr<const char, UnmapJournal> mapped;
    mutable std::mutex mu;
    /** Lines appended by record(): a deque never moves its
     *  elements, so the views into them stay valid. */
    std::deque<std::string> appendStore;
    /** Key -> its first valid line, loaded or appended. */
    std::unordered_map<uint64_t, Entry> index;
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
