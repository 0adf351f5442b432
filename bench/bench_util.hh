/**
 * @file
 * Shared helpers for the experiment harnesses in bench/: common
 * instruction budgets, command-line options, the parallel sweep
 * prefetcher, table formatting, geometric means, and machine-
 * readable JSON output.
 *
 * Each bench binary regenerates one table or figure of the paper.
 * Instruction budgets are chosen so every binary finishes in tens of
 * seconds; pass --quick to shrink them further, --full to enlarge.
 *
 * Harnesses print their tables row by row but declare their full
 * experiment grid up front via prefetchGrid()/prefetchPoints().
 * The prefetcher fans every (benchmark × scheme × width × pregs ×
 * seed) point out across a sim::SimulationRunner thread pool
 * (--jobs N, default hardware_concurrency) and memoizes the
 * seed-averaged results; the subsequent runOne() calls in the
 * printing code hit the cache, so the emitted tables are
 * byte-identical to serial execution (--jobs 1).
 *
 * With --journal FILE every simulated point is persisted to a sweep
 * journal (sim/journal.hh), the one result cache: rerunning the same
 * command resumes a crashed sweep or, once the grid is complete,
 * serves every point without simulating. Journaled results are
 * bit-exact, so the emitted tables never change by a byte.
 */

#ifndef PRI_BENCH_BENCH_UTIL_HH
#define PRI_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"
#include "workload/trace/trace_cache.hh"

namespace pri::bench
{

/** Instruction budgets for one experiment run. */
struct Budget
{
    uint64_t warmup = 20000;
    uint64_t measure = 80000;
};

/** Parse --quick / --full from argv. */
inline Budget
parseBudget(int argc, char **argv)
{
    Budget b;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            b.warmup = 5000;
            b.measure = 20000;
        } else if (std::strcmp(argv[i], "--full") == 0) {
            b.warmup = 50000;
            b.measure = 250000;
        }
    }
    return b;
}

/** Common harness options: budgets, worker count, JSON sink,
 *  crash-resilience knobs. */
struct Options
{
    Budget budget;
    unsigned jobs = 0;     ///< worker threads; 0 = hardware_concurrency
    std::string jsonPath;  ///< --json FILE: machine-readable results
    std::string journalPath; ///< --journal FILE: resumable sweeps
    uint64_t timeoutMs = 0;  ///< --timeout-ms N: per-run wall budget
    unsigned retries = 0;    ///< --retries N: re-attempts per point
    unsigned backoffMs = 0;  ///< --backoff-ms N: sleep between tries
};

namespace detail
{

/** Process-wide resilience state the option parser arms and the
 *  prefetcher / runOne() / fig_fault_avf consume: retry policy,
 *  per-run wall-clock budget, and (when --journal is given) the
 *  process's one sweep journal. */
struct Resilience
{
    sim::RetryPolicy retry;
    uint64_t timeoutMs = 0;
    std::unique_ptr<sim::SweepJournal> journal;
};

inline Resilience &
resilience()
{
    static Resilience r;
    return r;
}

} // namespace detail

/** Parse --quick / --full / --jobs N / --json FILE /
 *  --journal FILE / --timeout-ms N / --retries N / --backoff-ms N
 *  from argv. Also installs the fatal-signal handlers so a crashed
 *  harness leaves a flight-recorder dump naming the run it died
 *  in. */
inline Options
parseOptions(int argc, char **argv)
{
    installCrashHandlers();
    Options o;
    o.budget = parseBudget(argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            o.jobs = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            o.jsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--journal") == 0 &&
                   i + 1 < argc) {
            o.journalPath = argv[++i];
        } else if (std::strcmp(argv[i], "--timeout-ms") == 0 &&
                   i + 1 < argc) {
            o.timeoutMs =
                static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(argv[i], "--retries") == 0 &&
                   i + 1 < argc) {
            o.retries = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--backoff-ms") == 0 &&
                   i + 1 < argc) {
            o.backoffMs = static_cast<unsigned>(std::atoi(argv[++i]));
        }
    }
    auto &rz = detail::resilience();
    rz.retry = sim::RetryPolicy{o.retries + 1, o.backoffMs};
    rz.timeoutMs = o.timeoutMs;
    if (!o.journalPath.empty() && rz.journal == nullptr) {
        rz.journal =
            std::make_unique<sim::SweepJournal>(o.journalPath);
    }
    return o;
}

/** Program seeds every experiment point is averaged over. The same
 *  seeds are used for every scheme, so scheme-vs-scheme comparisons
 *  are paired and generator variance cancels. */
constexpr uint64_t kSeeds[] = {11, 22, 33};

/** One experiment grid point (seed-averaged over kSeeds). */
struct Point
{
    std::string bench;
    unsigned width = 4;
    sim::Scheme scheme = sim::Scheme::Base;
    unsigned pregs = 64;
    unsigned ports = 0; ///< PRF read ports; 0 = unlimited
};

namespace detail
{

/** Cache key: every RunParams field that affects the result
 *  (seed excluded — cached entries are seed averages). */
using PointKey = std::tuple<std::string, unsigned, int, unsigned,
                            uint64_t, uint64_t, unsigned>;

inline PointKey
keyOf(const Point &pt, const Budget &budget)
{
    return {pt.bench, pt.width, static_cast<int>(pt.scheme),
            pt.pregs, budget.warmup, budget.measure, pt.ports};
}

inline std::map<PointKey, sim::RunResult> &
resultCache()
{
    static std::map<PointKey, sim::RunResult> cache;
    return cache;
}

/** Every cached point in insertion order, for JSON output. */
inline std::vector<std::pair<PointKey, const sim::RunResult *>> &
jsonLog()
{
    static std::vector<std::pair<PointKey, const sim::RunResult *>> v;
    return v;
}

inline sim::RunParams
paramsFor(const Point &pt, const Budget &budget, uint64_t seed)
{
    sim::RunParams p;
    p.benchmark = pt.bench;
    p.width = pt.width;
    p.scheme = pt.scheme;
    p.physRegs = pt.pregs;
    p.prfReadPorts = pt.ports;
    p.warmupInsts = budget.warmup;
    p.measureInsts = budget.measure;
    p.seed = seed;
    // Wall-clock budget is machine-dependent and excluded from
    // paramsHash, so it never perturbs journal keys or results.
    p.timeoutMs = resilience().timeoutMs;
    return p;
}

/** Thread-pool runner armed with the harness retry policy and
 *  (when --journal was given) the shared sweep journal. */
inline sim::SimulationRunner
makeRunner(unsigned jobs)
{
    sim::SimulationRunner runner(jobs);
    runner.setRetryPolicy(resilience().retry);
    runner.setJournal(resilience().journal.get());
    return runner;
}

/** Average per-seed results exactly as the serial harnesses always
 *  have (first result carries the labels and the report). */
inline sim::RunResult
averageResults(const std::vector<sim::RunResult> &rs)
{
    sim::RunResult acc;
    unsigned n = 0;
    for (const auto &r : rs) {
        if (n == 0) {
            acc = r;
        } else {
            acc.ipc += r.ipc;
            acc.cycles += r.cycles;
            acc.insts += r.insts;
            acc.avgIntOccupancy += r.avgIntOccupancy;
            acc.avgFpOccupancy += r.avgFpOccupancy;
            acc.lifeAllocToWrite += r.lifeAllocToWrite;
            acc.lifeWriteToLastRead += r.lifeWriteToLastRead;
            acc.lifeLastReadToRelease += r.lifeLastReadToRelease;
            acc.branchMispredictRate += r.branchMispredictRate;
            acc.dl1MissRate += r.dl1MissRate;
            acc.priEarlyFrees += r.priEarlyFrees;
            acc.erEarlyFrees += r.erEarlyFrees;
            acc.inlinedFrac += r.inlinedFrac;
            acc.portStallsPerKInst += r.portStallsPerKInst;
            acc.portInlineBypassFrac += r.portInlineBypassFrac;
        }
        ++n;
    }
    const double inv = 1.0 / n;
    acc.ipc *= inv;
    acc.avgIntOccupancy *= inv;
    acc.avgFpOccupancy *= inv;
    acc.lifeAllocToWrite *= inv;
    acc.lifeWriteToLastRead *= inv;
    acc.lifeLastReadToRelease *= inv;
    acc.branchMispredictRate *= inv;
    acc.dl1MissRate *= inv;
    acc.priEarlyFrees *= inv;
    acc.erEarlyFrees *= inv;
    acc.inlinedFrac *= inv;
    acc.portStallsPerKInst *= inv;
    acc.portInlineBypassFrac *= inv;
    return acc;
}

inline const sim::RunResult &
cacheInsert(const PointKey &key, sim::RunResult avg)
{
    auto [it, inserted] =
        resultCache().emplace(key, std::move(avg));
    if (inserted)
        jsonLog().emplace_back(it->first, &it->second);
    return it->second;
}

} // namespace detail

/**
 * Run every not-yet-cached point of the list (× kSeeds) through the
 * thread pool and memoize the seed averages. Results are identical
 * to on-demand serial evaluation; only wall-clock changes.
 */
inline void
prefetchPoints(const std::vector<Point> &points, const Options &opts)
{
    std::vector<Point> todo;
    std::vector<detail::PointKey> keys;
    std::vector<sim::RunParams> batch;
    for (const auto &pt : points) {
        auto key = detail::keyOf(pt, opts.budget);
        if (detail::resultCache().count(key))
            continue;
        if (std::find(keys.begin(), keys.end(), key) != keys.end())
            continue;
        todo.push_back(pt);
        keys.push_back(key);
        for (uint64_t seed : kSeeds)
            batch.push_back(
                detail::paramsFor(pt, opts.budget, seed));
    }
    if (batch.empty())
        return;

    const auto results = detail::makeRunner(opts.jobs).run(batch);

    constexpr size_t n_seeds = std::size(kSeeds);
    for (size_t i = 0; i < todo.size(); ++i) {
        std::vector<sim::RunResult> per_seed(
            results.begin() + i * n_seeds,
            results.begin() + (i + 1) * n_seeds);
        detail::cacheInsert(keys[i],
                            detail::averageResults(per_seed));
    }
}

/** Cross-product convenience wrapper over prefetchPoints(). */
inline void
prefetchGrid(const std::vector<std::string> &benches,
             const std::vector<unsigned> &widths,
             const std::vector<sim::Scheme> &schemes,
             const Options &opts,
             const std::vector<unsigned> &pregsList = {64},
             const std::vector<unsigned> &portsList = {0})
{
    std::vector<Point> pts;
    for (const auto &b : benches)
        for (unsigned w : widths)
            for (auto s : schemes)
                for (unsigned pr : pregsList)
                    for (unsigned rp : portsList)
                        pts.push_back(Point{b, w, s, pr, rp});
    prefetchPoints(pts, opts);
}

inline void writeJson(const Options &opts);

/**
 * Declarative form of the sweep-driver skeleton every figure
 * harness used to open-code: banner, full experiment grid, a
 * per-width table emitter, JSON output.
 */
struct SweepGrid
{
    /** Banner printed verbatim before anything runs. */
    const char *banner = "";
    std::vector<std::string> benches;
    std::vector<unsigned> widths;
    std::vector<sim::Scheme> schemes;
    std::vector<unsigned> pregsList = {64};
    /** PRF read-port budgets; {0} = the classic unlimited grid. */
    std::vector<unsigned> portsList = {0};
};

/**
 * The shared sweep-driver body: print the banner, prefetch the full
 * grid through the thread pool, call
 * @p emit_width once per grid width — in declaration order, with
 * every point already cached so the printing code never simulates —
 * then write the JSON sink. Returns the harness exit status (0).
 */
template <class EmitWidth>
inline int
runSweepGrid(const SweepGrid &grid, const Options &opts,
             EmitWidth &&emit_width)
{
    std::printf("%s", grid.banner);
    prefetchGrid(grid.benches, grid.widths, grid.schemes, opts,
                 grid.pregsList, grid.portsList);
    for (unsigned w : grid.widths)
        emit_width(w);
    writeJson(opts);
    return 0;
}

/** Run one configuration, averaged over kSeeds (memoized). */
inline sim::RunResult
runOne(const std::string &bench, unsigned width, sim::Scheme scheme,
       const Budget &budget, unsigned pregs = 64, unsigned ports = 0)
{
    const Point pt{bench, width, scheme, pregs, ports};
    const auto key = detail::keyOf(pt, budget);
    if (auto it = detail::resultCache().find(key);
        it != detail::resultCache().end()) {
        return it->second;
    }
    std::vector<sim::RunParams> batch;
    batch.reserve(std::size(kSeeds));
    for (uint64_t seed : kSeeds)
        batch.push_back(detail::paramsFor(pt, budget, seed));
    // Through the harness runner rather than bare simulate():
    // cache misses in the printing code get the same journal and
    // retry handling as prefetched points.
    const auto per_seed = detail::makeRunner(1).run(batch);
    return detail::cacheInsert(
        key, detail::averageResults(per_seed));
}

/**
 * Write every point evaluated so far to opts.jsonPath (no-op
 * without --json) as {"points": [...], "traceCache": {...}}. Each
 * point record carries the full grid coordinates plus the headline
 * metrics, so future PRs can diff figure data mechanically; the
 * traceCache section reports the run's front-end trace compilation
 * and sharing statistics (machine-dependent only in that the op
 * counters scale with how much this invocation simulated). Its
 * traceBytes is what is resident when the file is written: 0 once
 * every sweep has released its workloads.
 */
inline void
writeJson(const Options &opts)
{
    if (opts.jsonPath.empty())
        return;
    std::FILE *f = std::fopen(opts.jsonPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n",
                     opts.jsonPath.c_str());
        return;
    }
    std::fprintf(f, "{\n\"points\": [\n");
    bool first = true;
    for (const auto &[key, r] : detail::jsonLog()) {
        const auto &[bench, width, scheme, pregs, warmup, measure,
                     ports] = key;
        std::fprintf(
            f,
            "%s  {\"benchmark\": \"%s\", \"scheme\": \"%s\", "
            "\"width\": %u, \"pregs\": %u, \"readPorts\": %u, "
            "\"warmup\": %llu, \"measure\": %llu, "
            "\"ipc\": %.6f, \"cycles\": %llu, \"insts\": %llu, "
            "\"avgIntOccupancy\": %.4f, \"avgFpOccupancy\": %.4f, "
            "\"lifeAllocToWrite\": %.4f, "
            "\"lifeWriteToLastRead\": %.4f, "
            "\"lifeLastReadToRelease\": %.4f, "
            "\"branchMispredictRate\": %.6f, "
            "\"dl1MissRate\": %.6f, \"priEarlyFrees\": %.4f, "
            "\"erEarlyFrees\": %.4f, \"inlinedFrac\": %.6f, "
            "\"portStallsPerKInst\": %.4f, "
            "\"portInlineBypassFrac\": %.6f}",
            first ? "" : ",\n", bench.c_str(),
            sim::schemeName(static_cast<sim::Scheme>(scheme)),
            width, pregs, ports,
            static_cast<unsigned long long>(warmup),
            static_cast<unsigned long long>(measure), r->ipc,
            static_cast<unsigned long long>(r->cycles),
            static_cast<unsigned long long>(r->insts),
            r->avgIntOccupancy, r->avgFpOccupancy,
            r->lifeAllocToWrite, r->lifeWriteToLastRead,
            r->lifeLastReadToRelease, r->branchMispredictRate,
            r->dl1MissRate, r->priEarlyFrees, r->erEarlyFrees,
            r->inlinedFrac, r->portStallsPerKInst,
            r->portInlineBypassFrac);
        first = false;
    }
    const auto tc = workload::trace::TraceCache::global().stats();
    std::fprintf(
        f,
        "\n],\n"
        "\"traceCache\": {\"programsCompiled\": %llu, "
        "\"programsShared\": %llu, \"blocksCompiled\": %llu, "
        "\"microOps\": %llu, \"traceBytes\": %llu, "
        "\"opsReplayed\": %llu, \"opsLegacyDecoded\": %llu, "
        "\"replayHitRate\": %.4f}\n"
        "}\n",
        static_cast<unsigned long long>(tc.programsCompiled),
        static_cast<unsigned long long>(tc.programsShared),
        static_cast<unsigned long long>(tc.blocksCompiled),
        static_cast<unsigned long long>(tc.microOps),
        static_cast<unsigned long long>(tc.traceBytes),
        static_cast<unsigned long long>(tc.opsReplayed),
        static_cast<unsigned long long>(tc.opsLegacyDecoded),
        tc.replayHitRate());
    std::fclose(f);
    std::printf("wrote %zu experiment points to %s\n",
                detail::jsonLog().size(), opts.jsonPath.c_str());
}

/** Geometric mean of a vector of ratios. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += x;
    return acc / static_cast<double>(xs.size());
}

/** Names of the SPECint-like workloads, in paper order. */
inline std::vector<std::string>
intBenchmarks()
{
    std::vector<std::string> v;
    for (const auto &p : workload::specIntProfiles())
        v.push_back(p.name);
    return v;
}

/** Names of the SPECfp-like workloads, in paper order. */
inline std::vector<std::string>
fpBenchmarks()
{
    std::vector<std::string> v;
    for (const auto &p : workload::specFpProfiles())
        v.push_back(p.name);
    return v;
}

} // namespace pri::bench

#endif // PRI_BENCH_BENCH_UTIL_HH
