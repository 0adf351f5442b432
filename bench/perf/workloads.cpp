#include "workloads.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>

#include "sim/result_codec.hh"
#include "workload/profile.hh"

namespace pri::perf
{

namespace
{

struct Budget
{
    uint64_t warmup;
    uint64_t measure;
};

// Figure 10's default budget: at --quick the 5k cold warm-up leaves
// Base IPC far from steady state, which would make the accuracy
// numbers measure the warm-up instead of the model.
constexpr Budget kFig10Budget{20000, 80000};
// Long enough that the cycle loop is ~99% of host time.
constexpr Budget kLongBudget{50000, 250000};
// The cache workload never simulates in its timed phase; a small
// populate budget keeps the repeated set-up short. Journal lines are
// the same size at any budget (the full stats report rides along).
constexpr Budget kWarmBudget{1000, 4000};

constexpr const char *kLongBenches[] = {"gcc", "mcf", "swim"};
constexpr sim::Scheme kLongSchemes[] = {
    sim::Scheme::Base,
    sim::Scheme::PriRefcountCkptcount,
};

sim::RunParams
point(const std::string &bench, unsigned width, sim::Scheme scheme,
      uint64_t seed, Budget budget, unsigned scale)
{
    sim::RunParams p;
    p.benchmark = bench;
    p.width = width;
    p.scheme = scheme;
    p.physRegs = 64;
    p.warmupInsts = budget.warmup / scale;
    p.measureInsts = budget.measure / scale;
    p.seed = seed;
    return p;
}

/** Benchmark seed S -> the multiplier of program seeds 11/22/33. Seed
 *  0 would make all three programs one; it takes 2^32 instead. */
uint64_t
seedBase(uint64_t seed)
{
    return seed != 0 ? seed : uint64_t{1} << 32;
}

/** Figure 10's grid in the harness's submission order. */
std::vector<sim::RunParams>
fig10Grid(uint64_t seed, Budget budget, unsigned scale)
{
    std::vector<sim::RunParams> pts;
    for (const auto &prof : workload::specIntProfiles())
        for (unsigned width : {4u, 8u})
            for (sim::Scheme scheme : sim::kAllSchemes)
                for (uint64_t k : {11u, 22u, 33u})
                    pts.push_back(point(prof.name, width, scheme,
                                        k * seedBase(seed), budget,
                                        scale));
    return pts;
}

std::vector<sim::RunParams>
longGrid(uint64_t seed, unsigned scale, bool golden)
{
    std::vector<sim::RunParams> pts;
    for (const char *bench : kLongBenches)
        for (unsigned width : {4u, 8u})
            for (sim::Scheme scheme : kLongSchemes) {
                auto p = point(bench, width, scheme, 11 * seedBase(seed),
                               kLongBudget, scale);
                p.checkGolden = golden;
                pts.push_back(std::move(p));
            }
    return pts;
}

double
geomeanRatio(const std::vector<double> &xs)
{
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

} // namespace

const std::vector<WorkloadInfo> &
allWorkloads()
{
    static const std::vector<WorkloadInfo> w = {
        {WorkloadId::Fig10Sweep, "fig10_sweep", 5, 1},
        // Their set-up takes ~25 ms, so more samples steady the median.
        {WorkloadId::LongRun, "long_run", 15, 5},
        {WorkloadId::GoldenCheck, "golden_check", 15, 5},
        // 200 untraced passes put ten samples beyond the p95.
        {WorkloadId::WarmRerun, "warm_rerun", 3, 200},
    };
    return w;
}

const WorkloadInfo *
findWorkload(std::string_view name)
{
    for (const auto &w : allWorkloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

std::vector<sim::RunParams>
workloadPoints(WorkloadId id, uint64_t seed, unsigned scale)
{
    switch (id) {
      case WorkloadId::Fig10Sweep:
        return fig10Grid(seed, kFig10Budget, scale);
      case WorkloadId::LongRun:
        return longGrid(seed, scale, false);
      case WorkloadId::GoldenCheck:
        return longGrid(seed, scale, true);
      case WorkloadId::WarmRerun:
        return fig10Grid(seed, kWarmBudget, scale);
    }
    return {};
}

std::vector<sim::RunParams>
tracedPoints(WorkloadId id, uint64_t seed, unsigned scale)
{
    auto pts = workloadPoints(id, seed, scale);
    if (id != WorkloadId::Fig10Sweep)
        return pts;
    std::vector<sim::RunParams> first;
    for (auto &p : pts)
        if (p.seed == 11 * seedBase(seed))
            first.push_back(std::move(p));
    return first;
}

bool
usesRunner(WorkloadId id)
{
    return id == WorkloadId::Fig10Sweep || id == WorkloadId::WarmRerun;
}

std::vector<std::pair<std::string, uint64_t>>
walkerProbePrograms(uint64_t seed)
{
    std::vector<std::pair<std::string, uint64_t>> v;
    for (const char *bench : kLongBenches)
        v.emplace_back(bench, 11 * seedBase(seed));
    return v;
}

void
Digest::add(std::string_view bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
}

std::string
pointDigest(const sim::RunParams &p, const sim::RunResult &r)
{
    Digest d;
    d.add(sim::codec::formatResultLine(sim::paramsHash(p), r));
    return d.hex();
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

Accuracy
fig10Accuracy(const std::vector<sim::RunParams> &points,
              const std::vector<sim::RunResult> &results)
{
    // Seed-averaged IPC per (benchmark, width, scheme), exactly as
    // the figure harnesses average it.
    std::map<std::tuple<std::string, unsigned, sim::Scheme>,
             std::pair<double, unsigned>>
        ipc;
    for (size_t i = 0; i < points.size(); ++i) {
        auto &acc = ipc[{points[i].benchmark, points[i].width,
                         points[i].scheme}];
        acc.first += results[i].ipc;
        ++acc.second;
    }
    const auto avg = [&](const std::string &b, unsigned w,
                         sim::Scheme s) {
        const auto &acc = ipc.at({b, w, s});
        return acc.first / acc.second;
    };

    // Paper Figure 10 averages at 4- and 8-wide.
    constexpr double kPaperPri[] = {7.3, 14.8};
    constexpr double kPaperInf[] = {11.0, 39.0};
    std::vector<double> ipc_err;
    double pri_err = 0.0;
    double inf_err = 0.0;
    const unsigned widths[] = {4, 8};
    for (size_t wi = 0; wi < 2; ++wi) {
        const unsigned w = widths[wi];
        std::vector<double> pri, inf;
        for (const auto &prof : workload::specIntProfiles()) {
            const double base = avg(prof.name, w, sim::Scheme::Base);
            const double paper = w == 4 ? prof.paperIpc4 : prof.paperIpc8;
            ipc_err.push_back(std::fabs(std::log(base / paper)));
            pri.push_back(
                avg(prof.name, w, sim::Scheme::PriRefcountCkptcount) /
                base);
            inf.push_back(
                avg(prof.name, w, sim::Scheme::InfinitePregs) / base);
        }
        pri_err += std::fabs(100.0 * (geomeanRatio(pri) - 1.0) -
                             kPaperPri[wi]);
        inf_err += std::fabs(100.0 * (geomeanRatio(inf) - 1.0) -
                             kPaperInf[wi]);
    }
    double mean_log = 0.0;
    for (double e : ipc_err)
        mean_log += e;
    mean_log /= static_cast<double>(ipc_err.size());

    Accuracy a;
    a.ipcErrPct = 100.0 * (std::exp(mean_log) - 1.0);
    a.priGainErrPp = pri_err / 2.0;
    a.infprGainErrPp = inf_err / 2.0;
    return a;
}

std::string
digestKey(std::string_view workload, uint64_t seed)
{
    return std::string(workload) + " " + std::to_string(seed);
}

std::map<std::string, std::string>
loadDigests(const std::string &path)
{
    std::map<std::string, std::string> d;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, seed, digest;
        if (fields >> workload >> seed >> digest)
            d[workload + " " + seed] = digest;
    }
    return d;
}

bool
saveDigests(const std::string &path,
            const std::map<std::string, std::string> &digests)
{
    std::ofstream out(path);
    out << "# pri_perf result digests: <workload> <seed> <digest>.\n"
           "# Regenerate (run.sh --update-digests) only in a change "
           "that alters the\n"
           "# simulated model; a speed-only change must match these "
           "bytes.\n";
    for (const auto &[key, digest] : digests)
        out << key << " " << digest << "\n";
    return static_cast<bool>(out);
}

} // namespace pri::perf
