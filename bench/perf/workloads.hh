/**
 * @file
 * The pri_perf workloads: which sweep points each one simulates (or
 * serves from the result cache), the result digest that fixes their
 * outputs, and Figure 10's accuracy against the paper.
 *
 * Every workload is a closed loop: one batch of points is submitted
 * and drained before the next rep starts. The seed S derives every
 * program seed (11S/22S/33S, so S=1 is the figure harnesses' seeds).
 */

#ifndef PRI_PERF_WORKLOADS_HH
#define PRI_PERF_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.hh"

namespace pri::perf
{

enum class WorkloadId
{
    Fig10Sweep,
    LongRun,
    GoldenCheck,
    WarmRerun,
};

struct WorkloadInfo
{
    WorkloadId id;
    const char *name;
    /** Set-up children per run; setup_s is their median. */
    unsigned setups;
    /** Untraced/traced rep pairs in a --trace 1 run. */
    unsigned tracePairs;
};

/** Every workload, in the order an all-workload run interleaves. */
const std::vector<WorkloadInfo> &allWorkloads();

/** nullptr when @p name is not a workload. */
const WorkloadInfo *findWorkload(std::string_view name);

/**
 * The points one rep of @p id submits, in submission order. @p scale
 * divides every instruction budget (1 = the benchmark, 50 = --smoke).
 * For WarmRerun these are the points the cache is populated with and
 * every pass looks up.
 */
std::vector<sim::RunParams> workloadPoints(WorkloadId id, uint64_t seed,
                                           unsigned scale);

/**
 * The points a --trace 1 run traces. Figure 10's grid is cut to its
 * first program seed (a third of the points) so the serial traced and
 * untraced passes fit the per-run time limit; every other workload
 * traces its full rep.
 */
std::vector<sim::RunParams> tracedPoints(WorkloadId id, uint64_t seed,
                                         unsigned scale);

/** Whether the timed rep drains through SimulationRunner(2) (batched,
 *  journaled) in one process rather than as serial sim::simulate()
 *  calls, one point per process. */
bool usesRunner(WorkloadId id);

/** Programs whose Walker replay the walker probe times. */
std::vector<std::pair<std::string, uint64_t>>
walkerProbePrograms(uint64_t seed);

/** 64-bit FNV-1a. */
class Digest
{
  public:
    void add(std::string_view bytes);
    std::string hex() const;

  private:
    uint64_t h = 14695981039346656037ULL;
};

/**
 * One point's digest: FNV-1a over codec::formatResultLine(paramsHash(p),
 * r), which covers every persisted field and the full stats report. A
 * rep's digest is FNV-1a over its points' digests in submission
 * order, so reps split across processes digest the same.
 */
std::string pointDigest(const sim::RunParams &p, const sim::RunResult &r);

/** Figure 10 against the paper's numbers (see README.md). */
struct Accuracy
{
    double ipcErrPct = 0.0;     ///< Base IPC vs Table 2
    double priGainErrPp = 0.0;  ///< PRI-refcount+ckptcount vs 7.3/14.8
    double infprGainErrPp = 0.0; ///< InfPR vs 11/39
};

/** @p results are the Fig10Sweep points' results, in point order. */
Accuracy fig10Accuracy(const std::vector<sim::RunParams> &points,
                       const std::vector<sim::RunResult> &results);

/** Expected digests, keyed "<workload> <seed>". */
std::map<std::string, std::string> loadDigests(const std::string &path);
bool saveDigests(const std::string &path,
                 const std::map<std::string, std::string> &digests);
std::string digestKey(std::string_view workload, uint64_t seed);

} // namespace pri::perf

#endif // PRI_PERF_WORKLOADS_HH
