/**
 * @file
 * pri_perf: the simulator's benchmark. It measures host speed, set-up
 * time and memory end to end on four workloads, checks every output
 * against committed digests, and in a separate traced run splits host
 * time across the simulator's layers (src/ module names) from spans
 * recorded around calls into them. See README.md.
 *
 *   pri_perf [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1]
 *            [--out FILE] [--spans FILE] [--update-digests]
 *   pri_perf --smoke
 *   pri_perf --compare A.json [B.json]
 *
 * Every set-up, rep and traced pass is a fresh child process (this
 * binary with --child ROLE); the parent only spawns, times and
 * checks them. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "child.hh"
#include "json.hh"
#include "proc.hh"
#include "workloads.hh"

namespace pri::perf
{

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Printed with --trace 0; names and units match BENCHMARK.json. */
constexpr MetricDef kEndToEnd[] = {
    {"points_per_s", "points/s"},
    {"sim_kips", "kinst/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Host-time spans; each is reported as "<span>_share", its self time
 *  as a share of the traced wall. proc.start is derived: spawn to
 *  the child's first span. */
constexpr const char *kSpans[] = {
    "proc.start",         "sim.point",           "workload.program_build",
    "workload.trace_acquire", "core.build",      "golden.build",
    "core.run_warmup",    "core.run_measure",    "golden.check",
    "common.stats_report", "sim.cache_open",     "sim.runner",
};

/** Printed with --trace 1 after the span shares, in this order. */
constexpr MetricDef kPerLayerRest[] = {
    {"core.mcycles_per_s", "Mcycle/s"},
    {"workload.walker_ns_per_inst", "ns/inst"},
    {"sim.worker_busy_frac", "frac"},
    {"sim.cache_hit_frac", "frac"},
    {"proc.rep_ms_p50", "ms"},
    {"proc.rep_ms_p95", "ms"},
    {"workload.trace_mb", "MB"},
    {"workload.traces_compiled", "count"},
    {"workload.traces_shared", "count"},
    {"workload.fetched_per_kinst", "1/kinst"},
    {"workload.commit_per_fetch", "frac"},
    {"branch.mispredicts_per_kinst", "1/kinst"},
    {"branch.btb_misses_per_kinst", "1/kinst"},
    {"rename.dest_allocs_per_kinst", "1/kinst"},
    {"rename.nopreg_stalls_per_kinst", "1/kinst"},
    {"rename.imm_read_frac", "frac"},
    {"rename.early_frees_per_kinst", "1/kinst"},
    {"rename.ckpts_per_kinst", "1/kinst"},
    {"core.cycles_per_kinst", "1/kinst"},
    {"core.commit_per_issue", "frac"},
    {"core.replays_per_kinst", "1/kinst"},
    {"core.squashed_per_kinst", "1/kinst"},
    {"core.ckpts_restored_per_kinst", "1/kinst"},
    {"core.select_scans_per_cycle", "1/cycle"},
    {"core.broadcasts_per_cycle", "1/cycle"},
    {"core.load_forwards_per_kinst", "1/kinst"},
    {"memory.dl1_accesses_per_kinst", "1/kinst"},
    {"memory.dl1_miss_rate", "frac"},
    {"memory.l2_miss_rate", "frac"},
    {"golden.commits_checked", "count"},
    {"trace.wall_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.coverage", "frac"},
    {"trace.overhead_frac", "frac"},
};

constexpr double kMinCoverage = 0.95;

/** Both relative to the repository root, where run.sh starts us. */
constexpr const char *kDigestsPath = "bench/perf/expected_digests.txt";
constexpr const char *kBenchJson = "BENCHMARK.json";

struct Config
{
    std::string workload = "all";
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool smoke = false;
    bool updateDigests = false;
    std::string out;
    std::string spans;
    std::string rev = "unknown";
    std::vector<std::string> compare;
    /** Instruction budgets are divided by this (--smoke: 50). */
    unsigned scale = 1;
    /** Where warm_rerun keeps its journals. */
    std::string tmpDir;
};

struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    size_t n = 0;
};

/** Median and quartiles as Python's statistics.quantiles(n=4) (the
 *  default exclusive method) gives them. */
Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    if (n < 2) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    const auto quartile = [&](long long i) {
        const auto len = static_cast<long long>(n);
        const long long m = len + 1;
        const long long j = std::clamp(i * m / 4, 1LL, len - 1);
        // Signed on purpose: Python extrapolates for tiny samples.
        const auto delta = static_cast<double>(i * m - j * 4);
        return (v[static_cast<size_t>(j - 1)] * (4.0 - delta) +
                v[static_cast<size_t>(j)] * delta) / 4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
median(std::vector<double> v)
{
    return summarize(std::move(v)).median;
}

double
finiteOr0(double x)
{
    return std::isfinite(x) ? x : 0.0;
}

/** A reported value, the per-rep samples behind it, and the value's
 *  spread within the run (relative to the value). */
struct Metric
{
    std::string name;
    std::string unit;
    double value;
    std::vector<double> samples;
    double spread;
};

struct WorkloadResult
{
    std::string name;
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, double>> info;
    std::vector<std::string> problems;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string digest;
    unsigned reps = 0;
    unsigned setups = 0;

    /** @p spread < 0: the samples' IQR over their median. */
    void
    add(const std::string &metric, const std::string &unit, double value,
        std::vector<double> samples, double spread = -1.0)
    {
        if (spread < 0.0) {
            const Summary s = summarize(samples);
            spread = std::fabs((s.q3 - s.q1) / s.median);
        }
        metrics.push_back(Metric{metric, unit, finiteOr0(value),
                                 std::move(samples), finiteOr0(spread)});
    }

    void
    fail(const std::string &why)
    {
        problems.push_back(why);
    }
};

/** The committed digests, and whether --update-digests changed them. */
struct DigestBook
{
    std::string path;
    std::map<std::string, std::string> expected;
    bool update = false;
    bool dirty = false;
};

int64_t
parseNs(const std::string &s)
{
    return std::strtoll(s.c_str(), nullptr, 10);
}

std::vector<std::string>
childArgs(const char *role, const WorkloadInfo &w, const Config &cfg)
{
    return {"--child", role,
            "--workload", w.name,
            "--seed", std::to_string(cfg.seed),
            "--scale", std::to_string(cfg.scale)};
}

/** Seconds from @p run's spawn to the time on its "<key> NS" line. */
double
secondsTo(const ChildRun &run, const char *key)
{
    return static_cast<double>(parseNs(run.field(key)) - run.spawnNs) / 1e9;
}

/**
 * Record @p run in @p res: its points count as attempted; a child
 * that did not exit cleanly or never printed @p end_key, failed
 * points and results that fail a sanity check count as failures.
 * Returns false when the child produced nothing usable.
 */
bool
checkChild(WorkloadResult &res, const ChildRun &run, const char *what,
           const char *end_key)
{
    if (!run.ok || run.field(end_key).empty()) {
        res.fail(std::string(what) + " child failed: " +
                 (run.ok ? std::string("no ") + end_key : run.how));
        return false;
    }
    res.attempted += static_cast<uint64_t>(run.number("points"));
    res.failed += static_cast<uint64_t>(run.number("failed"));
    for (const auto &e : run.all("error"))
        res.fail(std::string(what) + " point " + e);
    for (const auto &b : run.all("bad"))
        res.fail(std::string(what) + " point " + b);
    return true;
}

/** Compare a full-scale digest with the committed one (or record it
 *  under --update-digests). */
void
checkExpected(WorkloadResult &res, const std::string &digest,
              const Config &cfg, DigestBook &book)
{
    if (cfg.scale != 1 || digest.empty())
        return;
    const std::string key = digestKey(res.name, cfg.seed);
    if (book.update) {
        if (res.problems.empty() && book.expected[key] != digest) {
            book.expected[key] = digest;
            book.dirty = true;
        }
        return;
    }
    const auto it = book.expected.find(key);
    if (it != book.expected.end() && it->second != digest) {
        res.fail("digest mismatch for " + res.name + " seed " +
                 std::to_string(cfg.seed) + ": got " + digest +
                 ", expected " + it->second + " (" + book.path + ")");
    }
}

/** A rep's digest from its children's "pd I HEX" lines: FNV-1a over
 *  the point digests in point order (see pointDigest). */
class RepDigest
{
  public:
    explicit RepDigest(size_t points) : pd(points) {}

    void
    add(const ChildRun &run)
    {
        for (const auto &line : run.all("pd")) {
            const auto sp = line.find(' ');
            const auto i = std::strtoull(line.c_str(), nullptr, 10);
            if (sp != std::string::npos && i < pd.size())
                pd[i] = line.substr(sp + 1);
        }
    }

    /** "" until every point has reported. */
    std::string
    hex() const
    {
        Digest d;
        for (const auto &h : pd) {
            if (h.empty())
                return "";
            d.add(h);
        }
        return d.hex();
    }

  private:
    std::vector<std::string> pd;
};

/** Digest of a child that ran a whole rep. */
std::string
digestOf(const ChildRun &run)
{
    RepDigest d(static_cast<size_t>(run.number("points")));
    d.add(run);
    return d.hex();
}

/** Same digest on every rep of a run (determinism). An incomplete
 *  rep has no digest; its failed points are reported already. */
void
checkSameDigest(WorkloadResult &res, const std::string &digest,
                const char *what)
{
    if (digest.empty())
        return;
    if (res.digest.empty()) {
        res.digest = digest;
    } else if (digest != res.digest) {
        res.fail(std::string(what) + " digest " + digest +
                 " differs from " + res.digest);
    }
}

/** A warm pass must be served whole from the cache. */
void
checkHits(WorkloadResult &res, const ChildRun &run, const char *what)
{
    const double misses = run.number("points") - run.number("hits");
    if (misses > 0) {
        res.failed += static_cast<uint64_t>(misses);
        res.fail(std::string(what) + " missed the cache on " +
                 std::to_string(static_cast<long>(misses)) + " points");
    }
}

/**
 * The untraced measurement of one workload: reps, with the set-ups
 * spread evenly among them so their median spans the run's host
 * phases (warm_rerun's first set-up fills the journal its passes
 * read). A rep is one child for the runner workloads and one child
 * per point for the serial ones. Throughput is reported from the fastest run of each
 * child (each point, for the serial workloads): on a shared host,
 * interference only ever slows a rep down, so the fastest one is the
 * steadiest estimate of what the code costs. The per-rep distribution
 * is kept alongside.
 */
class TimedRun
{
  public:
    TimedRun(const WorkloadInfo &w, const Config &cfg)
        : w(w), cfg(cfg),
          nPoints(workloadPoints(w.id, cfg.seed, cfg.scale).size())
    {
        res.name = w.name;
        if (usesRunner(w.id)) {
            batches = {-1};
        } else {
            for (size_t i = 0; i < nPoints; ++i)
                batches.push_back(static_cast<long>(i));
        }
        for (auto &half : bestHalf)
            half.assign(batches.size(), INFINITY);
        batchPoints.assign(batches.size(), 0.0);
        batchKinst.assign(batches.size(), 0.0);
    }

    ~TimedRun()
    {
        for (const auto &j : journals)
            std::remove(j.c_str());
    }

    TimedRun(const TimedRun &) = delete;
    TimedRun &operator=(const TimedRun &) = delete;

    void
    setup(DigestBook &book)
    {
        setupOnce();
        if (warm())
            checkExpected(res, res.digest, cfg, book);
    }

    bool wantsMore() const { return res.reps == 0 || measuredS < cfg.seconds; }
    double measured() const { return measuredS; }

    void
    rep()
    {
        while (res.setups < setupCount() &&
               measuredS >= cfg.seconds * res.setups / setupCount())
            setupOnce();
        RepDigest digest(nPoints);
        double wall = 0.0, points = 0.0, kinst = 0.0, rss = 0.0;
        bool whole = true;
        for (size_t b = 0; b < batches.size(); ++b) {
            auto args = childArgs("rep", w, cfg);
            if (batches[b] >= 0)
                args.insert(args.end(), {"--only", std::to_string(batches[b])});
            if (warm())
                args.insert(args.end(), {"--journal", journals.front()});
            const ChildRun run = runChild(args);
            measuredS += static_cast<double>(run.reapNs - run.spawnNs) / 1e9;
            if (!checkChild(res, run, "rep", "t_end")) {
                whole = false;
                continue;
            }
            const double t = secondsTo(run, "t_end");
            double &fastest = bestHalf[res.reps % 2][b];
            fastest = std::min(fastest, t);
            batchPoints[b] = run.number("points");
            batchKinst[b] = run.number("kinst");
            wall += t;
            points += batchPoints[b];
            kinst += batchKinst[b];
            rss = std::max(rss, run.maxRssMb);
            digest.add(run);
            if (warm())
                checkHits(res, run, "warm pass");
            if (res.info.empty()) {
                for (const auto &line : run.all("info")) {
                    const auto sp = line.find(' ');
                    res.info.emplace_back(line.substr(0, sp),
                                          std::atof(line.c_str() + sp + 1));
                }
            }
        }
        ++res.reps;
        if (!whole)
            return;
        checkSameDigest(res, digest.hex(), "rep");
        repRate.push_back(points / wall);
        repKips.push_back(kinst / wall);
        repRss.push_back(rss);
        repMs.push_back(wall * 1e3);
    }

    WorkloadResult
    finish(DigestBook &book)
    {
        while (res.setups < setupCount())
            setupOnce();
        if (!warm())
            checkExpected(res, res.digest, cfg, book);
        // Fastest wall per batch over all reps, and over the even and
        // odd reps alone: the two halves' disagreement is the spread
        // of the reported value (IQR of the reps if only one ran).
        double best_wall = 0.0, points = 0.0, kinst = 0.0;
        double half_wall[2] = {0.0, 0.0};
        for (size_t b = 0; b < batches.size(); ++b) {
            best_wall += std::min(bestHalf[0][b], bestHalf[1][b]);
            half_wall[0] += bestHalf[0][b];
            half_wall[1] += bestHalf[1][b];
            points += batchPoints[b];
            kinst += batchKinst[b];
        }
        const double best_spread = std::isfinite(half_wall[1])
            ? std::fabs(half_wall[0] - half_wall[1]) /
                std::max(half_wall[0], half_wall[1])
            : -1.0;
        // The set-ups' spread: their even and odd samples' medians.
        std::vector<double> halves[2];
        for (size_t i = 0; i < setupS.size(); ++i)
            halves[i % 2].push_back(setupS[i]);
        const double setup_spread = halves[1].empty()
            ? -1.0
            : std::fabs(median(halves[0]) - median(halves[1])) /
                median(setupS);
        const double values[] = {points / best_wall, kinst / best_wall,
                                 median(setupS), median(repRss)};
        const double spreads[] = {best_spread, best_spread, setup_spread,
                                  -1.0};
        const std::vector<double> *samples[] = {&repRate, &repKips, &setupS,
                                                &repRss};
        static_assert(std::size(values) == std::size(kEndToEnd));
        for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
            res.add(kEndToEnd[i].name, kEndToEnd[i].unit, values[i],
                    *samples[i], spreads[i]);
        }
        if (warm()) {
            res.info.emplace_back("rerun_ms_p50", median(repMs));
            res.info.emplace_back("rerun_ms_p95", percentile(repMs, 0.95));
            res.info.emplace_back("passes",
                                  static_cast<double>(repMs.size()));
        }
        return res;
    }

  private:
    bool warm() const { return w.id == WorkloadId::WarmRerun; }

    unsigned setupCount() const { return cfg.smoke ? 1 : w.setups; }

    /** One set-up child, timed into setupS. Each warm populate fills
     *  a journal of its own; the passes read the first. */
    void
    setupOnce()
    {
        auto args = childArgs("setup", w, cfg);
        if (warm()) {
            journals.push_back(cfg.tmpDir + "/" + w.name + "-" +
                               std::to_string(getpid()) + "-" +
                               std::to_string(journals.size()) + ".prij");
            args.insert(args.end(), {"--journal", journals.back()});
        }
        const ChildRun run = runChild(args);
        ++res.setups;
        if (!checkChild(res, run, "set-up", "t_ready"))
            return;
        setupS.push_back(secondsTo(run, "t_ready"));
        if (warm())
            checkSameDigest(res, digestOf(run), "cold populate");
    }

    const WorkloadInfo &w;
    const Config &cfg;
    const size_t nPoints;
    /** One child per entry: a point index, or -1 for the whole rep. */
    std::vector<long> batches;
    /** Per batch: fastest wall over the even and the odd reps. */
    std::array<std::vector<double>, 2> bestHalf;
    /** Per batch: its points and simulated kinst. */
    std::vector<double> batchPoints, batchKinst;
    WorkloadResult res;
    std::vector<std::string> journals;
    std::vector<double> setupS, repRate, repKips, repRss, repMs;
    double measuredS = 0.0;
};

/** Self time per span name, summed over the traced passes. */
struct SpanAccount
{
    struct Row
    {
        uint64_t count = 0;
        double totalS = 0.0;
        double selfS = 0.0;
    };
    std::map<std::string, Row> rows;
    double wallS = 0.0;
    double unattributedS = 0.0;
    std::string json; ///< every pass's spans, for the span file

    /** Fold in one traced child; returns its traced wall (s). */
    double
    add(const ChildRun &run, unsigned rep)
    {
        struct Span
        {
            std::string name;
            int64_t start, end;
            int parent, point;
        };
        std::vector<Span> spans;
        for (const auto &l : run.all("span")) {
            char name[64];
            long long start = 0, end = 0;
            int parent = -1, point = -1;
            if (std::sscanf(l.c_str(), "%63s %lld %lld %d %d", name, &start,
                            &end, &parent, &point) == 5)
                spans.push_back(Span{name, start, end, parent, point});
        }
        const int64_t spawn = run.spawnNs;
        const int64_t t_end = parseNs(run.field("t_end"));
        const double wall = static_cast<double>(t_end - spawn) / 1e9;

        std::vector<int64_t> child_ns(spans.size(), 0);
        int64_t first = t_end;
        int64_t top_ns = 0;
        for (const auto &s : spans) {
            if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
                child_ns[static_cast<size_t>(s.parent)] += s.end - s.start;
            else
                top_ns += s.end - s.start;
            first = std::min(first, s.start);
        }
        const int64_t start_ns = first - spawn;
        auto &ps = rows["proc.start"];
        ++ps.count;
        ps.totalS += static_cast<double>(start_ns) / 1e9;
        ps.selfS += static_cast<double>(start_ns) / 1e9;
        for (size_t i = 0; i < spans.size(); ++i) {
            auto &row = rows[spans[i].name];
            const int64_t dur = spans[i].end - spans[i].start;
            ++row.count;
            row.totalS += static_cast<double>(dur) / 1e9;
            row.selfS += static_cast<double>(dur - child_ns[i]) / 1e9;
        }
        wallS += wall;
        unattributedS +=
            static_cast<double>(t_end - spawn - start_ns - top_ns) / 1e9;

        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"rep\": %u, \"wall_ns\": %" PRId64
                      ", \"spans\": [",
                      json.empty() ? "" : ",\n", rep, t_end - spawn);
        json += buf;
        for (size_t i = 0; i < spans.size(); ++i) {
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\": \"%s\", \"start_ns\": %" PRId64
                          ", \"end_ns\": %" PRId64
                          ", \"parent\": %d, \"point\": %d}",
                          i ? ", " : "", spans[i].name.c_str(),
                          spans[i].start - spawn, spans[i].end - spawn,
                          spans[i].parent, spans[i].point);
            json += buf;
        }
        json += "]}";
        return wall;
    }

    double
    self(const std::string &name) const
    {
        const auto it = rows.find(name);
        return it == rows.end() ? 0.0 : it->second.selfS;
    }
};

void
printSelfTimes(const std::string &workload, const SpanAccount &acc)
{
    std::vector<std::pair<std::string, SpanAccount::Row>> rows(
        acc.rows.begin(), acc.rows.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.selfS > b.second.selfS;
    });
    std::printf("\n%s: self time per layer over %.3f s traced wall\n",
                workload.c_str(), acc.wallS);
    std::printf("  %-26s %8s %12s %12s %8s\n", "span", "count", "total s",
                "self s", "share");
    for (const auto &[name, r] : rows) {
        std::printf("  %-26s %8llu %12.6f %12.6f %7.2f%%\n", name.c_str(),
                    static_cast<unsigned long long>(r.count), r.totalS,
                    r.selfS, 100.0 * r.selfS / acc.wallS);
    }
    std::printf("  %-26s %8s %12s %12.6f %7.2f%%\n", "(unattributed)", "",
                "", acc.unattributedS,
                100.0 * acc.unattributedS / acc.wallS);
}

/**
 * The --trace 1 run of one workload: untraced and traced passes in
 * interleaved pairs (the untraced ones are the timed path, or its
 * serial twin for fig10_sweep), then the walker probe. Per-layer
 * metrics come from the traced passes' spans and simulated counts.
 */
WorkloadResult
traceWorkload(const WorkloadInfo &w, const Config &cfg, DigestBook &book,
              std::string &spans_json)
{
    WorkloadResult res;
    res.name = w.name;
    const bool warm = w.id == WorkloadId::WarmRerun;
    const unsigned pairs = cfg.smoke ? std::min(w.tracePairs, 5u)
                                     : w.tracePairs;
    const std::string journal = cfg.tmpDir + "/" + w.name + "-" +
        std::to_string(getpid()) + "-trace.prij";

    std::vector<double> untraced_wall, traced_wall, rep_ms, busy;
    std::vector<double> hit_frac;
    std::string ref_points;
    std::map<std::string, double> counts;
    SpanAccount acc;

    // The timed path's rep, for the runner-only layers (worker
    // occupancy) and latency; fig10's traced pass is serial instead.
    const auto timed_rep = [&](const ChildRun &run) {
        rep_ms.push_back(secondsTo(run, "t_end") * 1e3);
        busy.push_back(run.cpuS /
                       (2.0 * static_cast<double>(run.reapNs - run.spawnNs) /
                        1e9));
    };
    // Every full rep below must reproduce one digest: the cold
    // populate and each pass on warm_rerun, fig10's batched rep, the
    // untraced passes of the serial workloads.
    if (warm) {
        auto args = childArgs("setup", w, cfg);
        args.insert(args.end(), {"--journal", journal});
        const ChildRun pop = runChild(args);
        if (checkChild(res, pop, "set-up", "t_ready"))
            checkSameDigest(res, digestOf(pop), "cold populate");
    } else if (w.id == WorkloadId::Fig10Sweep) {
        const ChildRun run = runChild(childArgs("rep", w, cfg));
        if (checkChild(res, run, "rep", "t_end")) {
            timed_rep(run);
            checkSameDigest(res, digestOf(run), "rep");
        }
    }

    for (unsigned r = 0; r < pairs; ++r) {
        auto plain = childArgs("rep", w, cfg);
        auto traced = childArgs("traced", w, cfg);
        if (warm) {
            plain.insert(plain.end(), {"--journal", journal});
            traced.insert(traced.end(), {"--journal", journal});
        } else {
            plain.insert(plain.end(), {"--serial", "--points"});
        }
        const ChildRun u = runChild(plain);
        if (checkChild(res, u, "untraced", "t_end")) {
            untraced_wall.push_back(secondsTo(u, "t_end"));
            if (w.id != WorkloadId::Fig10Sweep)
                timed_rep(u);
            if (warm) {
                hit_frac.push_back(u.number("hits") / u.number("points"));
                checkHits(res, u, "untraced pass");
                checkSameDigest(res, digestOf(u), "untraced pass");
            } else {
                std::string pts;
                for (const auto &p : u.all("point"))
                    pts += p + "\n";
                if (ref_points.empty())
                    ref_points = pts;
                // fig10's serial twin covers a third of the grid.
                if (w.id != WorkloadId::Fig10Sweep)
                    checkSameDigest(res, digestOf(u), "untraced pass");
            }
        }
        const ChildRun t = runChild(traced);
        if (!checkChild(res, t, "traced", "t_end"))
            continue;
        traced_wall.push_back(acc.add(t, r));
        if (warm) {
            checkHits(res, t, "traced pass");
            checkSameDigest(res, digestOf(t), "traced pass");
            continue;
        }
        std::string pts;
        for (const auto &p : t.all("point"))
            pts += p + "\n";
        if (pts != ref_points)
            res.fail("traced pass results differ from the untraced pass");
        if (counts.empty()) {
            for (const auto &c : t.all("count")) {
                const auto sp = c.find(' ');
                counts[c.substr(0, sp)] = std::atof(c.c_str() + sp + 1);
            }
        }
    }

    checkExpected(res, res.digest, cfg, book);
    const ChildRun walker = runChild(childArgs("walker", w, cfg));
    checkChild(res, walker, "walker probe", "walker_ns_per_inst");
    std::remove(journal.c_str());

    std::map<std::string, double> v;
    for (const char *span : kSpans)
        v[std::string(span) + "_share"] = acc.self(span) / acc.wallS;
    const auto c = [&](const char *name) {
        const auto it = counts.find(name);
        return it == counts.end() ? 0.0 : it->second;
    };
    const double kinst = c("committed") / 1000.0;
    const double cycles = c("cycles");
    const double run_s = acc.self("core.run_warmup") +
        acc.self("core.run_measure");
    v["core.mcycles_per_s"] =
        cycles * static_cast<double>(traced_wall.size()) / run_s / 1e6;
    v["workload.walker_ns_per_inst"] = walker.number("walker_ns_per_inst");
    v["sim.worker_busy_frac"] = median(busy);
    v["sim.cache_hit_frac"] = warm ? median(hit_frac) : 0.0;
    v["proc.rep_ms_p50"] = median(rep_ms);
    v["proc.rep_ms_p95"] = percentile(rep_ms, 0.95);
    v["workload.trace_mb"] = c("trace.bytes") / (1024.0 * 1024.0);
    v["workload.traces_compiled"] = c("trace.compiled");
    v["workload.traces_shared"] = c("trace.shared");
    v["workload.fetched_per_kinst"] = c("core.fetchedInsts") / kinst;
    v["workload.commit_per_fetch"] =
        c("core.committedInsts") / c("core.fetchedInsts");
    v["branch.mispredicts_per_kinst"] = c("core.branchMispredicts") / kinst;
    v["branch.btb_misses_per_kinst"] = c("core.btbMisses") / kinst;
    v["rename.dest_allocs_per_kinst"] = c("rename.destAllocs") / kinst;
    v["rename.nopreg_stalls_per_kinst"] =
        (c("core.stallNoPregInt") + c("core.stallNoPregFp")) / kinst;
    v["rename.imm_read_frac"] = c("rename.srcImmReads") /
        (c("rename.srcImmReads") + c("rename.srcPregReads"));
    v["rename.early_frees_per_kinst"] =
        (c("pri.earlyFrees") + c("er.earlyFrees")) / kinst;
    v["rename.ckpts_per_kinst"] = c("rename.checkpointsCreated") / kinst;
    v["core.cycles_per_kinst"] = cycles / kinst;
    v["core.commit_per_issue"] =
        c("core.committedInsts") / c("core.issuedInsts");
    v["core.replays_per_kinst"] = c("core.replays") / kinst;
    v["core.squashed_per_kinst"] = c("core.squashedInsts") / kinst;
    v["core.ckpts_restored_per_kinst"] = c("core.ckptsRestored") / kinst;
    v["core.select_scans_per_cycle"] = c("wakeup.selectScans") / cycles;
    v["core.broadcasts_per_cycle"] = c("wakeup.broadcasts") / cycles;
    v["core.load_forwards_per_kinst"] = c("core.loadForwards") / kinst;
    const double dl1 = c("memory.dl1Hits") + c("memory.dl1Misses");
    v["memory.dl1_accesses_per_kinst"] = dl1 / kinst;
    v["memory.dl1_miss_rate"] = c("memory.dl1Misses") / dl1;
    v["memory.l2_miss_rate"] = c("memory.l2Misses") /
        (c("memory.l2Hits") + c("memory.l2Misses"));
    v["golden.commits_checked"] = c("golden.checked");
    v["trace.wall_s"] = acc.wallS;
    v["trace.unattributed_s"] = acc.unattributedS;
    const double coverage = 1.0 - acc.unattributedS / acc.wallS;
    v["trace.coverage"] = coverage;
    // Fastest against fastest, as for the timed metrics.
    if (!traced_wall.empty() && !untraced_wall.empty()) {
        v["trace.overhead_frac"] =
            *std::min_element(traced_wall.begin(), traced_wall.end()) /
                *std::min_element(untraced_wall.begin(),
                                  untraced_wall.end()) -
            1.0;
    }

    for (const char *span : kSpans) {
        const std::string name = std::string(span) + "_share";
        res.add(name, "frac", v[name], {v[name]});
    }
    for (const auto &def : kPerLayerRest)
        res.add(def.name, def.unit, v[def.name], {v[def.name]});

    if (!(coverage >= kMinCoverage)) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "trace coverage %.4f is below %.2f", coverage,
                      kMinCoverage);
        res.fail(buf);
    }
    res.reps = static_cast<unsigned>(traced_wall.size());
    printSelfTimes(w.name, acc);

    spans_json += "{\"workload\": " + jsonQuote(w.name) +
        ", \"seed\": " + std::to_string(cfg.seed) + ", \"passes\": [\n" +
        acc.json + "\n]}";
    return res;
}

std::string
hostField(const char *path, const char *key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, std::strlen(key), key) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                const auto b = line.find_first_not_of(" \t", colon + 1);
                return b == std::string::npos ? "" : line.substr(b);
            }
        }
    }
    return "unknown";
}

/** Where these numbers were measured. */
std::vector<std::pair<std::string, std::string>>
hostInfo(const Config &cfg)
{
    utsname u{};
    uname(&u);
    return {
        {"rev", cfg.rev},
        {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
        {"cpu", hostField("/proc/cpuinfo", "model name")},
        {"kernel", std::string(u.sysname) + " " + u.release},
        {"compiler", PRI_PERF_COMPILER},
    };
}

std::string
num(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", finiteOr0(x));
    return buf;
}

void
printTable(const WorkloadResult &r)
{
    std::printf("\n%s: %u rep%s, %u set-up%s\n", r.name.c_str(), r.reps,
                r.reps == 1 ? "" : "s", r.setups, r.setups == 1 ? "" : "s");
    std::printf("  %-34s %14s %8s %14s %14s %14s %4s  %s\n", "metric",
                "value", "spread", "median", "q1", "q3", "n", "unit");
    for (const auto &m : r.metrics) {
        const Summary s = summarize(m.samples);
        std::printf("  %-34s %14.6g %7.2f%% %14.6g %14.6g %14.6g %4zu  %s\n",
                    m.name.c_str(), m.value, 100.0 * m.spread, s.median, s.q1,
                    s.q3, s.n, m.unit.c_str());
    }
    for (const auto &[k, val] : r.info)
        std::printf("  %-34s %14.6g  (info)\n", k.c_str(), val);
    if (!r.digest.empty())
        std::printf("  digest %s\n", r.digest.c_str());
    for (const auto &p : r.problems)
        std::printf("  FAIL %s: %s\n", r.name.c_str(), p.c_str());
}

bool
allCorrect(const std::vector<WorkloadResult> &results)
{
    for (const auto &r : results)
        if (!r.problems.empty() || r.failed != 0)
            return false;
    return true;
}

/** The machine-readable last line of stdout. */
void
printResultLine(const std::vector<WorkloadResult> &results, bool prefix)
{
    uint64_t attempted = 0, failed = 0;
    std::string metrics;
    for (const auto &r : results) {
        attempted += r.attempted;
        failed += r.failed;
        for (const auto &m : r.metrics) {
            const std::string name =
                prefix ? r.name + "." + m.name : m.name;
            if (!metrics.empty())
                metrics += ", ";
            metrics += jsonQuote(name);
            metrics += ": {\"value\": " + num(m.value) +
                ", \"unit\": " + jsonQuote(m.unit) + "}";
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                allCorrect(results) ? "true" : "false",
                static_cast<unsigned long long>(std::max<uint64_t>(
                    attempted, 1)),
                static_cast<unsigned long long>(failed), metrics.c_str());
}

bool
writeOut(const std::string &path, const Config &cfg,
         const std::vector<WorkloadResult> &results)
{
    const auto sep = [](std::string &s, bool first, const char *text) {
        if (!first)
            s += text;
    };
    std::string j = "{\n  \"host\": {";
    bool first = true;
    for (const auto &[k, v] : hostInfo(cfg)) {
        sep(j, first, ", ");
        j += jsonQuote(k) + ": " + jsonQuote(v);
        first = false;
    }
    j += "},\n  \"seed\": " + std::to_string(cfg.seed) +
        ", \"seconds\": " + num(cfg.seconds) +
        ", \"trace\": " + (cfg.trace ? "1" : "0") +
        ", \"scale\": " + std::to_string(cfg.scale) +
        ",\n  \"correct\": " + (allCorrect(results) ? "true" : "false") +
        ",\n  \"workloads\": {";
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        sep(j, i == 0, ",");
        j += "\n    " + jsonQuote(r.name) +
            ": {\"reps\": " + std::to_string(r.reps) +
            ", \"setups\": " + std::to_string(r.setups) +
            ", \"attempted\": " + std::to_string(r.attempted) +
            ", \"failed\": " + std::to_string(r.failed) +
            ", \"digest\": " + jsonQuote(r.digest) + ",\n      \"problems\": [";
        for (size_t k = 0; k < r.problems.size(); ++k) {
            sep(j, k == 0, ", ");
            j += jsonQuote(r.problems[k]);
        }
        j += "],\n      \"metrics\": {";
        for (size_t k = 0; k < r.metrics.size(); ++k) {
            const auto &m = r.metrics[k];
            const Summary s = summarize(m.samples);
            sep(j, k == 0, ",");
            j += "\n        " + jsonQuote(m.name) +
                ": {\"value\": " + num(m.value) +
                ", \"spread\": " + num(m.spread) +
                ", \"median\": " + num(s.median) + ", \"q1\": " + num(s.q1) +
                ", \"q3\": " + num(s.q3) + ", \"n\": " + std::to_string(s.n) +
                ", \"unit\": " + jsonQuote(m.unit) + "}";
        }
        j += "},\n      \"info\": {";
        for (size_t k = 0; k < r.info.size(); ++k) {
            sep(j, k == 0, ", ");
            j += jsonQuote(r.info[k].first) + ": " + num(r.info[k].second);
        }
        j += "}}";
    }
    j += "\n  }\n}\n";
    std::ofstream out(path);
    out << j;
    return static_cast<bool>(out);
}

std::vector<const WorkloadInfo *>
selectWorkloads(const Config &cfg)
{
    std::vector<const WorkloadInfo *> v;
    if (cfg.workload == "all") {
        for (const auto &w : allWorkloads())
            v.push_back(&w);
    } else if (const auto *w = findWorkload(cfg.workload)) {
        v.push_back(w);
    }
    return v;
}

/** Untraced measurement of @p ws, reps interleaved: the workload with
 *  the least measured time so far runs next. */
std::vector<WorkloadResult>
measure(const std::vector<const WorkloadInfo *> &ws, const Config &cfg,
        DigestBook &book)
{
    std::vector<std::unique_ptr<TimedRun>> runs;
    for (const auto *w : ws)
        runs.push_back(std::make_unique<TimedRun>(*w, cfg));
    for (auto &r : runs)
        r->setup(book);
    for (;;) {
        TimedRun *next = nullptr;
        for (auto &r : runs)
            if (r->wantsMore() &&
                (next == nullptr || r->measured() < next->measured()))
                next = r.get();
        if (next == nullptr)
            break;
        next->rep();
    }
    std::vector<WorkloadResult> out;
    for (auto &r : runs)
        out.push_back(r->finish(book));
    return out;
}

std::vector<WorkloadResult>
traceAll(const std::vector<const WorkloadInfo *> &ws, const Config &cfg,
         DigestBook &book)
{
    std::vector<WorkloadResult> out;
    std::string spans = "{\"workloads\": [\n";
    for (size_t i = 0; i < ws.size(); ++i) {
        if (i)
            spans += ",\n";
        out.push_back(traceWorkload(*ws[i], cfg, book, spans));
    }
    spans += "\n]}\n";
    const std::string path = !cfg.spans.empty()
        ? cfg.spans
        : selfDir() + "/spans-" + cfg.workload + ".json";
    std::ofstream f(path);
    f << spans;
    if (f)
        std::printf("\nspans written to %s\n", path.c_str());
    else
        std::fprintf(stderr, "pri_perf: cannot write %s\n", path.c_str());
    return out;
}

// --------------------------------------------------------------------
// --compare

struct Bound
{
    std::string name;
    bool higherBetter;
    double bound;
};

struct Side
{
    /** (value, spread) per set. */
    std::vector<std::array<double, 2>> sets;
};

bool
loadSides(const std::string &path, std::vector<Json> &sets,
          std::string &err)
{
    Json doc;
    if (!readJsonFile(path, doc, err))
        return false;
    if (const Json *s = doc.find("sets")) {
        sets = s->array;
    } else {
        sets.push_back(std::move(doc));
    }
    return true;
}

void
collect(const std::vector<Json> &sets, std::map<std::string, Side> &out)
{
    for (const auto &set : sets) {
        const Json *ws = set.find("workloads");
        if (ws == nullptr)
            continue;
        for (const auto &[wname, w] : ws->object) {
            const Json *ms = w.find("metrics");
            if (ms == nullptr)
                continue;
            for (const auto &[mname, m] : ms->object) {
                const auto get = [&](const char *k) {
                    const Json *x = m.find(k);
                    return x ? x->number : 0.0;
                };
                out[wname + "\t" + mname].sets.push_back(
                    {get("value"), get("spread")});
            }
        }
    }
}

/** The value (median over sets) and the spread: the widest
 *  within-set spread or the between-set range of values relative to
 *  their median. */
std::pair<double, double>
sideStats(const Side &s)
{
    std::vector<double> values;
    double spread = 0.0;
    for (const auto &x : s.sets) {
        values.push_back(x[0]);
        spread = std::max(spread, x[1]);
    }
    const double v = median(values);
    if (values.size() > 1) {
        const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
        spread = std::max(spread, (*hi - *lo) / v);
    }
    return {v, spread};
}

int
compareMain(const Config &cfg)
{
    std::string err;
    Json bench;
    if (!readJsonFile(kBenchJson, bench, err)) {
        std::fprintf(stderr, "pri_perf: %s\n", err.c_str());
        return 2;
    }
    std::vector<Bound> bounds;
    if (const Json *e2e = bench.find("end_to_end")) {
        for (const auto &m : e2e->array) {
            const Json *n = m.find("name");
            const Json *b = m.find("better");
            const Json *bd = m.find("bound");
            if (n && b && bd)
                bounds.push_back({n->string, b->string == "higher",
                                  bd->number});
        }
    }

    std::vector<Json> a_sets, b_sets;
    if (!loadSides(cfg.compare[0], a_sets, err)) {
        std::fprintf(stderr, "pri_perf: %s\n", err.c_str());
        return 2;
    }
    if (cfg.compare.size() > 1) {
        if (!loadSides(cfg.compare[1], b_sets, err)) {
            std::fprintf(stderr, "pri_perf: %s\n", err.c_str());
            return 2;
        }
    } else if (a_sets.size() >= 2) {
        // One file of several sets: its first set against its second.
        b_sets.push_back(a_sets[1]);
        a_sets.resize(1);
    } else {
        std::fprintf(stderr, "pri_perf: --compare needs two result "
                             "files, or one with two \"sets\"\n");
        return 2;
    }
    std::map<std::string, Side> a, b;
    collect(a_sets, a);
    collect(b_sets, b);

    std::printf("%-14s %-14s %14s %14s %9s %9s %7s  %s\n", "workload",
                "metric", "A", "B", "change", "spread",
                "bound", "verdict");
    bool worse = false;
    for (const auto &[key, sa] : a) {
        const auto tab = key.find('\t');
        const std::string wname = key.substr(0, tab);
        const std::string mname = key.substr(tab + 1);
        const auto bit = b.find(key);
        const auto bd = std::find_if(bounds.begin(), bounds.end(),
                                     [&](const Bound &x) {
                                         return x.name == mname;
                                     });
        if (bit == b.end() || bd == bounds.end())
            continue;
        const auto [ma, spa] = sideStats(sa);
        const auto [mb, spb] = sideStats(bit->second);
        // Positive = B is better.
        const double gain = bd->higherBetter ? (mb - ma) / ma
                                             : (ma - mb) / ma;
        const double spread = std::max(spa, spb);
        const char *verdict = "unchanged";
        if (spread > bd->bound) {
            verdict = "unresolved";
        } else if (gain < -bd->bound) {
            verdict = "worse";
            worse = true;
        } else if (gain > bd->bound) {
            verdict = "better";
        }
        std::printf("%-14s %-14s %14.6g %14.6g %+8.2f%% %8.2f%% %6.1f%%  %s\n",
                    wname.c_str(), mname.c_str(), ma, mb, 100.0 * gain,
                    100.0 * spread, 100.0 * bd->bound, verdict);
    }
    return worse ? 1 : 0;
}

// --------------------------------------------------------------------
// --smoke

/** Names in BENCHMARK.json's @p section missing from @p results. */
std::vector<std::string>
missingMetrics(const Json &bench, const char *section,
               const std::vector<WorkloadResult> &results)
{
    std::vector<std::string> missing;
    const Json *list = bench.find(section);
    if (list == nullptr)
        return {std::string("BENCHMARK.json has no ") + section};
    for (const auto &r : results) {
        for (const auto &m : list->array) {
            const Json *n = m.find("name");
            const Json *u = m.find("unit");
            const std::string name = n ? n->string : "";
            const auto it = std::find_if(
                r.metrics.begin(), r.metrics.end(),
                [&](const Metric &x) { return x.name == name; });
            if (it == r.metrics.end() || u == nullptr ||
                it->unit != u->string)
                missing.push_back(r.name + ": " + name);
        }
    }
    return missing;
}

int
smokeMain(Config cfg, DigestBook &book)
{
    cfg.scale = 50;
    cfg.seconds = 1.0;
    std::string err;
    Json bench;
    if (!readJsonFile(kBenchJson, bench, err)) {
        std::fprintf(stderr, "pri_perf: %s\n", err.c_str());
        return 2;
    }
    const int64_t t0 = nowNs();
    const auto ws = selectWorkloads(cfg);
    auto timed = measure(ws, cfg, book);
    cfg.trace = true;
    auto traced = traceAll(ws, cfg, book);
    for (const auto &r : timed)
        printTable(r);
    for (const auto &r : traced)
        printTable(r);

    auto missing = missingMetrics(bench, "end_to_end", timed);
    const auto more = missingMetrics(bench, "per_layer", traced);
    missing.insert(missing.end(), more.begin(), more.end());
    for (const auto &m : missing)
        std::printf("FAIL metric missing or with another unit: %s\n",
                    m.c_str());
    const double secs = static_cast<double>(nowNs() - t0) / 1e9;
    std::printf("\nsmoke: %zu workloads in %.1f s\n", ws.size(), secs);

    std::vector<WorkloadResult> all = timed;
    all.insert(all.end(), traced.begin(), traced.end());
    if (!missing.empty())
        all.front().fail("metrics missing from the output");
    printResultLine(all, true);
    return allCorrect(all) ? 0 : 1;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pri_perf: %s\n"
                 "usage: pri_perf [--workload NAME|all] [--seed S] "
                 "[--seconds T] [--trace 0|1]\n"
                 "                [--out FILE] [--spans FILE] "
                 "[--update-digests] [--rev REV]\n"
                 "       pri_perf --smoke\n"
                 "       pri_perf --compare A.json [B.json]\n"
                 "workloads:",
                 why);
    for (const auto &w : allWorkloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

uint64_t
parseCount(const char *s, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno != 0 || s[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
perfMain(int argc, char **argv)
{
    Config cfg;
    ChildOptions child;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            cfg.workload = value();
        } else if (a == "--seed") {
            cfg.seed = parseCount(value(), "--seed");
        } else if (a == "--seconds") {
            cfg.seconds = static_cast<double>(parseCount(value(), "--seconds"));
        } else if (a == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                usage("--trace takes 0 or 1");
            cfg.trace = t == "1";
        } else if (a == "--smoke") {
            cfg.smoke = true;
        } else if (a == "--update-digests") {
            cfg.updateDigests = true;
        } else if (a == "--out") {
            cfg.out = value();
        } else if (a == "--spans") {
            cfg.spans = value();
        } else if (a == "--rev") {
            cfg.rev = value();
        } else if (a == "--compare") {
            cfg.compare.push_back(value());
            if (i + 1 < argc && argv[i + 1][0] != '-')
                cfg.compare.push_back(argv[++i]);
        } else if (a == "--child") {
            child.role = value();
        } else if (a == "--scale") {
            cfg.scale = static_cast<unsigned>(parseCount(value(), "--scale"));
            if (cfg.scale == 0)
                usage("--scale must be positive");
        } else if (a == "--journal") {
            child.journal = value();
        } else if (a == "--serial") {
            child.serial = true;
        } else if (a == "--points") {
            child.points = true;
        } else if (a == "--only") {
            child.only = static_cast<long>(parseCount(value(), "--only"));
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }

    if (!child.role.empty()) {
        child.workload = findWorkload(cfg.workload);
        if (child.workload == nullptr)
            usage("a child needs --workload NAME");
        child.seed = cfg.seed;
        child.scale = cfg.scale;
        return childMain(child);
    }
    if (!cfg.compare.empty())
        return compareMain(cfg);

    if (cfg.workload != "all" && findWorkload(cfg.workload) == nullptr)
        usage(("unknown workload " + cfg.workload).c_str());
    cfg.tmpDir = selfDir() + "/tmp";
    mkdir(cfg.tmpDir.c_str(), 0755);

    DigestBook book;
    book.path = kDigestsPath;
    book.expected = loadDigests(kDigestsPath);
    book.update = cfg.updateDigests;

    std::printf("pri_perf: workload %s, seed %llu, %s\n", cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed),
                cfg.smoke ? "smoke" : cfg.trace ? "traced" : "untraced");
    std::printf("host:");
    for (const auto &[k, v] : hostInfo(cfg))
        std::printf(" %s=%s;", k.c_str(), v.c_str());
    std::printf("\n");
    std::fflush(stdout);

    int rc = 0;
    if (cfg.smoke) {
        rc = smokeMain(cfg, book);
    } else {
        const auto ws = selectWorkloads(cfg);
        const auto results = cfg.trace ? traceAll(ws, cfg, book)
                                       : measure(ws, cfg, book);
        for (const auto &r : results)
            printTable(r);
        if (!cfg.out.empty() && !writeOut(cfg.out, cfg, results))
            std::fprintf(stderr, "pri_perf: cannot write %s\n",
                         cfg.out.c_str());
        printResultLine(results, ws.size() > 1);
        rc = allCorrect(results) ? 0 : 1;
    }
    if (book.dirty) {
        if (saveDigests(book.path, book.expected))
            std::fprintf(stderr, "pri_perf: updated %s\n", book.path.c_str());
        else
            std::fprintf(stderr, "pri_perf: cannot write %s\n",
                         book.path.c_str());
    }
    return rc;
}

} // namespace pri::perf

int
main(int argc, char **argv)
{
    return pri::perf::perfMain(argc, argv);
}
