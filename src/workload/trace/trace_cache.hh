/**
 * @file
 * Compiled program traces and the process-global trace cache.
 *
 * A ProgramTraces is the MicroTrace set for one SyntheticProgram:
 * every basic block compiled to a flat, contiguous MicroOp array
 * (one allocation for the whole program), plus the block-start PC
 * table, the pre-resolved memory-stream parameters, and the handful
 * of profile scalars the replay generators read. It is immutable
 * after compilation.
 *
 * The TraceCache is the process's workload cache. It shares
 * ProgramTraces across all sweep points of the same program, keyed by
 * a content fingerprint, and it shares the SyntheticProgram itself
 * across all sweep points of the same (benchmark, seed). Each is built
 * once under a mutex on first use, then handed out read-only, so
 * `--jobs N` workers and whole fig10-style sweeps build each program
 * and decode each trace set once. A runner sweep releases each
 * (benchmark, seed) after its last point; other callers' entries stay
 * until the capacity trim (DESIGN.md §13, §14).
 */

#ifndef PRI_WORKLOAD_TRACE_TRACE_CACHE_HH
#define PRI_WORKLOAD_TRACE_TRACE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workload/program.hh"
#include "workload/trace/micro_op.hh"

namespace pri::workload::trace
{

/**
 * Pre-resolved replay form of one MemStream: bounds are stored as
 * 8-byte word counts so the replay path does no min/shift work.
 */
struct TraceStream
{
    uint64_t base = 0;
    uint64_t hotWords = 0;  ///< min(bytes, kHotRegionBytes) >> 3
    uint64_t coldWords = 0; ///< bytes >> 3
    uint64_t seqMask = 0;   ///< bytes - 1 (bytes is a power of two)
    bool random = false;
};

/** The compiled, immutable micro-trace set for one program. */
class ProgramTraces
{
  public:
    /** Compile every block of @p prog (done by TraceCache/tests). */
    explicit ProgramTraces(const SyntheticProgram &prog);

    /** Contiguous MicroOps of block @p b (one per StaticInst). */
    const MicroOp *
    blockOps(uint32_t b) const
    {
        return ops_.data() + blockFirst[b];
    }

    /** Start PC of block @p b (for fast return-target matching). */
    uint64_t startPc(uint32_t b) const { return startPcs[b]; }

    uint64_t entryPc() const { return entryPc_; }
    const std::vector<TraceStream> &streams() const { return streams_; }

    // Profile scalars the replay generators compare against.
    double fracNegative = 0.0;
    double fpFracZero = 0.0;
    double fpFracSigTrivialNonZero = 0.0;
    double randomAccessFrac = 0.0;
    double branchCorrelatedFrac = 0.0;

    uint64_t fingerprint() const { return fp; }
    size_t numBlocks() const { return blockFirst.size(); }
    size_t numOps() const { return ops_.size(); }

    /** Resident bytes of the compiled form (stats only). */
    uint64_t
    traceBytes() const
    {
        return ops_.size() * sizeof(MicroOp) +
            blockFirst.size() * sizeof(uint32_t) +
            startPcs.size() * sizeof(uint64_t) +
            streams_.size() * sizeof(TraceStream);
    }

  private:
    std::vector<MicroOp> ops_;        ///< all blocks, back to back
    std::vector<uint32_t> blockFirst; ///< block id -> index into ops_
    std::vector<uint64_t> startPcs;   ///< block id -> start PC
    std::vector<TraceStream> streams_;
    uint64_t entryPc_ = 0;
    uint64_t fp = 0;
};

/**
 * Content fingerprint of a program: a hash over every StaticInst
 * field, stream, and profile scalar that influences compiled traces
 * or replay draws, computed once when the program is built. Keying
 * the trace cache by content (not by profile name) keeps sharing
 * correct even for hand-built profiles reusing a name.
 */
uint64_t programFingerprint(const SyntheticProgram &prog);

/** One (benchmark, seed)'s program and its compiled traces. */
struct Workload
{
    std::shared_ptr<const SyntheticProgram> program;
    std::shared_ptr<const ProgramTraces> traces;
};

/**
 * Process-global, thread-safe cache of programs and their compiled
 * traces. A first use builds under the mutex; concurrent users of the
 * same entry wait and share the one build.
 */
class TraceCache
{
  public:
    static TraceCache &global();

    /** Get (compiling if needed) the traces for @p prog. */
    std::shared_ptr<const ProgramTraces>
    acquire(const SyntheticProgram &prog);

    /**
     * Get (building if needed) the program of the profileByName()
     * benchmark @p benchmark at @p seed, with its traces from
     * acquire(). Throws like profileByName() on an unknown name.
     */
    Workload workload(const std::string &benchmark, uint64_t seed);

    /**
     * Drop the workload() entry of (@p benchmark, @p seed) and its
     * traces from acquire()'s map. Holders keep their shared_ptrs;
     * the next request builds afresh. No-op for an absent entry.
     */
    void release(const std::string &benchmark, uint64_t seed);

    struct Stats
    {
        uint64_t programsCompiled = 0; ///< acquire() misses
        uint64_t programsShared = 0;   ///< acquire() hits
        uint64_t programsEvicted = 0;  ///< capacity-trim drops
        uint64_t workloadsBuilt = 0;   ///< workload() misses
        uint64_t workloadsShared = 0;  ///< workload() hits
        uint64_t blocksCompiled = 0;   ///< cumulative
        uint64_t microOps = 0;         ///< cumulative
        uint64_t traceBytes = 0;       ///< currently resident
        uint64_t opsReplayed = 0;      ///< traced next() calls
        uint64_t opsLegacyDecoded = 0; ///< legacy next() calls
    };
    Stats stats() const;

    /** Walker teardown flushes its op counters here (atomic). */
    void
    noteWalkerOps(uint64_t replayed, uint64_t legacy)
    {
        opsReplayed.fetch_add(replayed, std::memory_order_relaxed);
        opsLegacy.fetch_add(legacy, std::memory_order_relaxed);
    }

    /** Drop all cached programs and traces and zero statistics
     *  (tests/bench). */
    void reset();

  private:
    /** acquire() with mu held. */
    std::shared_ptr<const ProgramTraces>
    acquireLocked(const SyntheticProgram &prog);

    // Fuzzers draw a fresh seed per point, so each map could otherwise
    // grow without bound across a long process. Live holders keep
    // their shared_ptr, so a trim never invalidates anyone.
    static constexpr size_t kMaxPrograms = 128;

    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::shared_ptr<const ProgramTraces>>
        entries;
    std::map<std::pair<std::string, uint64_t>, Workload> workloads;
    uint64_t nCompiled = 0;
    uint64_t nShared = 0;
    uint64_t nEvicted = 0;
    uint64_t nBuilt = 0;
    uint64_t nWorkloadHits = 0;
    uint64_t nBlocks = 0;
    uint64_t nOps = 0;
    std::atomic<uint64_t> opsReplayed{0};
    std::atomic<uint64_t> opsLegacy{0};
};

} // namespace pri::workload::trace

#endif // PRI_WORKLOAD_TRACE_TRACE_CACHE_HH
