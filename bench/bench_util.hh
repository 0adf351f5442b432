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
 * printing code only read the cache, so the emitted tables are
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
#include <charconv>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/logging.hh"
#include "common/parse_number.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"

namespace pri::bench
{

/** Instruction budgets for one experiment run. */
struct Budget
{
    uint64_t warmup = 20000;
    uint64_t measure = 80000;
};

/** Common harness options: budgets, worker count, JSON sink,
 *  crash-resilience knobs. */
struct Options
{
    Budget budget;
    unsigned jobs = 0;     ///< worker threads; 0 = hardware_concurrency
    std::string jsonPath;  ///< --json FILE: machine-readable results
    std::string journalPath; ///< --journal FILE: resumable sweeps
    uint64_t timeoutMs = 0;  ///< --timeout-ms N: per-run wall budget
};

/**
 * The common flags that promise something a harness must keep: a
 * --json results file, a --journal result cache and a --timeout-ms
 * limit per run. A harness names the ones it keeps and
 * parseOptions() rejects the others as unknown arguments. --quick,
 * --full and --jobs N only size and spread the work, so every
 * harness accepts them.
 */
struct Honours
{
    bool json = true;
    bool journal = true;
    bool timeout = true;
};

/** A harness's own numeric flag (`NAME N`), accepted beside the
 *  common set; N is stored through @c value. */
struct ExtraFlag
{
    const char *name;
    std::variant<unsigned *, uint64_t *> value;
};

namespace detail
{

/** Process-wide resilience state the option parser arms and the
 *  prefetcher / seedMeanIpc() / fig_fault_avf consume: the per-run
 *  wall-clock budget and (when --journal is given) the process's
 *  one sweep journal. */
struct Resilience
{
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

/** Parse --quick / --full / --jobs N, the common flags in
 *  @p honours (--json FILE / --journal FILE / --timeout-ms N) and
 *  the harness's @p extra flags from argv. Numbers must be whole
 *  unsigned decimals; a bad number, a missing value, an unknown
 *  argument or a --json file that cannot be written is fatal, before
 *  anything simulates. Also installs the fatal-signal handlers so a
 *  crashed harness leaves a flight-recorder dump naming the run it
 *  died in. */
inline Options
parseOptions(int argc, char **argv, Honours honours = {},
             std::initializer_list<ExtraFlag> extra = {})
{
    installCrashHandlers();
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        const auto value = [&]() -> std::string_view {
            if (i + 1 >= argc)
                fatal("missing value for {}", a);
            return argv[++i];
        };
        if (a == "--quick") {
            o.budget = Budget{5000, 20000};
        } else if (a == "--full") {
            o.budget = Budget{50000, 250000};
        } else if (a == "--jobs") {
            o.jobs = parseFlagValue<unsigned>(a, value());
        } else if (a == "--json" && honours.json) {
            o.jsonPath = value();
        } else if (a == "--journal" && honours.journal) {
            o.journalPath = value();
        } else if (a == "--timeout-ms" && honours.timeout) {
            o.timeoutMs = parseFlagValue<uint64_t>(a, value());
        } else if (auto f = std::find_if(
                       extra.begin(), extra.end(),
                       [&](const ExtraFlag &e) { return a == e.name; });
                   f != extra.end()) {
            std::visit(
                [&](auto *v) {
                    using T = std::remove_pointer_t<decltype(v)>;
                    *v = parseFlagValue<T>(a, value());
                },
                f->value);
        } else {
            fatal("unknown argument '{}'", a);
        }
    }
    if (!o.jsonPath.empty()) {
        // Append mode creates a missing file and keeps an existing
        // one intact until writeJson() replaces it.
        std::FILE *f = std::fopen(o.jsonPath.c_str(), "a");
        if (f == nullptr)
            fatal("cannot write {}", o.jsonPath);
        std::fclose(f);
    }
    auto &rz = detail::resilience();
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

/** Thread-pool runner armed with (when --journal was given) the
 *  shared sweep journal. */
inline sim::SimulationRunner
makeRunner(unsigned jobs)
{
    sim::SimulationRunner runner(jobs);
    runner.setJournal(resilience().journal.get());
    return runner;
}

/** Average per-seed results: the counts add up, the rates are
 *  summed in seed order and then scaled by 1/n, and the labels,
 *  archSig and report are the first seed's. */
inline sim::RunResult
averageResults(std::span<const sim::RunResult> rs)
{
    sim::RunResult acc = rs.front();
    for (const auto &r : rs.subspan(1)) {
        for (const auto &field : sim::kResultCounts)
            acc.*field.member += r.*field.member;
        for (const auto &field : sim::kResultRates)
            acc.*field.member += r.*field.member;
    }
    const double inv = 1.0 / static_cast<double>(rs.size());
    for (const auto &field : sim::kResultRates)
        acc.*field.member *= inv;
    return acc;
}

/** Write `, "name": value` to @p f: an integer in decimal, a double
 *  in its shortest round-trip form. */
template <class T>
inline void
writeJsonField(std::FILE *f, const char *name, T value)
{
    char buf[32];
    const char *end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    std::fprintf(f, ", \"%s\": %.*s", name,
                 static_cast<int>(end - buf), buf);
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
    std::vector<detail::PointKey> keys;
    std::vector<sim::RunParams> batch;
    for (const auto &pt : points) {
        auto key = detail::keyOf(pt, opts.budget);
        if (detail::resultCache().count(key))
            continue;
        if (std::find(keys.begin(), keys.end(), key) != keys.end())
            continue;
        keys.push_back(key);
        for (uint64_t seed : kSeeds)
            batch.push_back(
                detail::paramsFor(pt, opts.budget, seed));
    }
    if (batch.empty())
        return;

    const auto results = detail::makeRunner(opts.jobs).run(batch);

    constexpr size_t n_seeds = std::size(kSeeds);
    for (size_t i = 0; i < keys.size(); ++i) {
        const std::span per_seed(results.data() + i * n_seeds, n_seeds);
        const auto it =
            detail::resultCache()
                .emplace(keys[i], detail::averageResults(per_seed))
                .first;
        detail::jsonLog().emplace_back(it->first, &it->second);
    }
}

/**
 * Run every point of @p points once per kSeeds seed (each point's
 * own seed is ignored) through the harness runner and return each
 * point's mean IPC: the per-seed IPCs summed in seed order, divided
 * by the seed count. For sweeps over RunParams fields a Point does
 * not carry, such as the scheduler size or the narrow-value width.
 */
inline std::vector<double>
seedMeanIpc(const std::vector<sim::RunParams> &points,
            const Options &opts)
{
    constexpr size_t n_seeds = std::size(kSeeds);
    std::vector<sim::RunParams> batch;
    batch.reserve(points.size() * n_seeds);
    for (const auto &p : points) {
        for (uint64_t seed : kSeeds) {
            batch.push_back(p);
            batch.back().seed = seed;
        }
    }
    const auto results = detail::makeRunner(opts.jobs).run(batch);

    std::vector<double> ipc(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        double sum = 0.0;
        for (size_t k = 0; k < n_seeds; ++k)
            sum += results[i * n_seeds + k].ipc;
        ipc[i] = sum / n_seeds;
    }
    return ipc;
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

/** One configuration's seed average, which the harness must have
 *  prefetched: a miss means its printing code asks for a point its
 *  grid left out, and panics. */
inline const sim::RunResult &
runOne(const std::string &bench, unsigned width, sim::Scheme scheme,
       const Budget &budget, unsigned pregs = 64, unsigned ports = 0)
{
    const auto it = detail::resultCache().find(
        detail::keyOf(Point{bench, width, scheme, pregs, ports}, budget));
    if (it == detail::resultCache().end()) {
        panic("point {} / {} / {}-wide / {} PR / {} read ports / "
              "{}+{} insts was not prefetched",
              bench, sim::schemeName(scheme), width, pregs, ports,
              budget.warmup, budget.measure);
    }
    return it->second;
}

/**
 * Write every point evaluated so far to opts.jsonPath (no-op
 * without --json) as {"points": [...]}, in evaluation order. Each
 * record holds the point's grid coordinates, then every
 * sim::kResultCounts field (seed totals) and sim::kResultRates field
 * (seed means, exact), so figure data can be diffed mechanically
 * across revisions. A file that cannot be written is fatal.
 */
inline void
writeJson(const Options &opts)
{
    if (opts.jsonPath.empty())
        return;
    std::FILE *f = std::fopen(opts.jsonPath.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write {}", opts.jsonPath);
    std::fprintf(f, "{\n\"points\": [\n");
    const char *sep = "";
    for (const auto &[key, r] : detail::jsonLog()) {
        const auto &[bench, width, scheme, pregs, warmup, measure,
                     ports] = key;
        std::fprintf(
            f,
            "%s  {\"benchmark\": \"%s\", \"scheme\": \"%s\", "
            "\"width\": %u, \"pregs\": %u, \"readPorts\": %u, "
            "\"warmup\": %llu, \"measure\": %llu",
            sep, bench.c_str(),
            sim::schemeName(static_cast<sim::Scheme>(scheme)), width,
            pregs, ports, static_cast<unsigned long long>(warmup),
            static_cast<unsigned long long>(measure));
        for (const auto &field : sim::kResultCounts)
            detail::writeJsonField(f, field.name, r->*field.member);
        for (const auto &field : sim::kResultRates)
            detail::writeJsonField(f, field.name, r->*field.member);
        std::fprintf(f, "}");
        sep = ",\n";
    }
    std::fprintf(f, "\n]\n}\n");
    const bool failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || failed)
        fatal("cannot write {}", opts.jsonPath);
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

/**
 * Figures 10 and 12: the IPC speedup over Base of every other
 * scheme in sim::kAllSchemes, per benchmark and geomean, at 4 and 8
 * wide. Returns the harness exit status.
 */
inline int
runSpeedupFigure(const char *banner,
                 const std::vector<std::string> &benches,
                 const Options &opts)
{
    const auto panel = std::span(sim::kAllSchemes).subspan(1);
    const auto emit_width = [&](unsigned width) {
        std::printf("width %u  (IPC speedup over Base)\n", width);
        std::printf("%-10s", "bench");
        for (auto s : panel)
            std::printf(" %22s", sim::schemeName(s));
        std::printf("\n");

        std::vector<std::vector<double>> cols(panel.size());
        for (const auto &name : benches) {
            const double base =
                runOne(name, width, sim::Scheme::Base, opts.budget).ipc;
            std::printf("%-10s", name.c_str());
            for (size_t i = 0; i < panel.size(); ++i) {
                const double sp =
                    runOne(name, width, panel[i], opts.budget).ipc / base;
                cols[i].push_back(sp);
                std::printf(" %22.3f", sp);
            }
            std::printf("\n");
        }
        std::printf("%-10s", "geomean");
        for (const auto &col : cols)
            std::printf(" %22.3f", geomean(col));
        std::printf("\n\n");
    };
    return runSweepGrid(
        SweepGrid{banner, benches, {4, 8},
                  std::vector<sim::Scheme>(std::begin(sim::kAllSchemes),
                                           std::end(sim::kAllSchemes))},
        opts, emit_width);
}

} // namespace pri::bench

#endif // PRI_BENCH_BENCH_UTIL_HH
