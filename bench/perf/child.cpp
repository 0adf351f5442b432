/**
 * @file
 * Child roles. Every role prints "<key> <value...>" lines:
 *
 *   t_ready NS / t_end NS   end of set-up / of the timed work
 *                           (CLOCK_MONOTONIC, same clock as the parent)
 *   points N, failed N, hits N, kinst X
 *   pd I HEX                point I's digest (pointDigest)
 *   error I MSG / bad I MSG  a failed point / a result that fails a
 *                           sanity check
 *   point I CYCLES INSTS ARCHSIG REPORT_DIGEST
 *   span NAME START END PARENT POINT
 *   count NAME VALUE        simulated events summed over the pass
 *   info NAME VALUE         Figure 10 accuracy
 *   walker_ns_per_inst X
 *
 * Everything after the timed work (digests, sanity checks, printing)
 * happens after t_end, so it is never measured.
 */

#include "child.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flight_recorder.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "golden/diff_checker.hh"
#include "proc.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/sim_instance.hh"
#include "workload/profile.hh"
#include "workload/program.hh"
#include "workload/trace/trace_cache.hh"
#include "workload/walker.hh"

namespace pri::perf
{

namespace
{

/** Spans kept in memory and printed once the traced pass is over. */
class SpanLog
{
  public:
    SpanLog() { spans.reserve(1 << 14); }

    /** Open a span under the innermost open one; @p point < 0
     *  inherits the parent's point. */
    int32_t
    open(const char *name, int32_t point)
    {
        const int64_t t = nowNs();
        if (point < 0 && top >= 0)
            point = spans[top].point;
        spans.push_back(Span{name, t, 0, top, point});
        top = static_cast<int32_t>(spans.size() - 1);
        return top;
    }

    void
    close(int32_t idx)
    {
        spans[idx].end = nowNs();
        top = spans[idx].parent;
    }

    /**
     * A child of @p parent standing for @p ns spent in many calls too
     * short to span one by one (per-commit checks). It is placed at
     * the parent's start; only its length is meaningful.
     */
    void
    addAggregate(const char *name, int32_t parent, int64_t ns)
    {
        const Span &p = spans[parent];
        spans.push_back(Span{name, p.start, p.start + ns, parent, p.point});
    }

    void
    print() const
    {
        for (const auto &s : spans) {
            std::printf("span %s %" PRId64 " %" PRId64 " %d %d\n", s.name,
                        s.start, s.end, s.parent, s.point);
        }
    }

  private:
    struct Span
    {
        const char *name;
        int64_t start;
        int64_t end;
        int32_t parent;
        int32_t point;
    };
    std::vector<Span> spans;
    int32_t top = -1;
};

class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, int32_t point = -1)
        : log(log), idx(log.open(name, point))
    {
    }
    ~ScopedSpan() { log.close(idx); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int32_t index() const { return idx; }

  private:
    SpanLog &log;
    int32_t idx;
};

/** Times every commit the golden checker verifies. */
class TimedChecker final : public core::CommitObserver
{
  public:
    explicit TimedChecker(golden::DiffChecker &checker) : checker(checker)
    {
    }

    void
    onCommit(const core::CommitRecord &rec) override
    {
        const int64_t t0 = nowNs();
        checker.onCommit(rec);
        ns += nowNs() - t0;
    }

    /** Time accumulated since the last take(). */
    int64_t
    take()
    {
        const int64_t v = ns;
        ns = 0;
        return v;
    }

  private:
    golden::DiffChecker &checker;
    int64_t ns = 0;
};

std::string
firstLine(const std::string &s)
{
    return s.substr(0, s.find('\n'));
}

/** Empty when @p r is a plausible complete result for @p p. */
std::string
sanityCheck(const sim::RunParams &p, const sim::RunResult &r)
{
    if (r.cycles == 0 || r.insts < p.measureInsts)
        return "short measurement window";
    if (r.committedTotal < p.warmupInsts + p.measureInsts)
        return "short run";
    if (p.checkGolden && r.goldenChecked != r.committedTotal)
        return "golden checker skipped commits";
    return "";
}

void
printPoint(size_t i, uint64_t cycles, uint64_t insts, uint64_t arch_sig,
           const std::string &report)
{
    Digest d;
    d.add(report);
    std::printf("point %zu %" PRIu64 " %" PRIu64 " %016" PRIx64 " %s\n", i,
                cycles, insts, arch_sig, d.hex().c_str());
}

/** Print the per-rep summary lines for @p results (after t_end);
 *  @p pts[i] is point @p first + i of the workload. */
void
printResults(const ChildOptions &o, const std::vector<sim::RunParams> &pts,
             const std::vector<sim::RunResult> &results,
             const std::vector<std::string> &errors, uint64_t hits,
             size_t first = 0)
{
    double kinst = 0.0;
    size_t failed = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
        const size_t at = first + i;
        if (!errors[i].empty()) {
            ++failed;
            std::printf("error %zu %s\n", at, firstLine(errors[i]).c_str());
            continue;
        }
        const std::string bad = sanityCheck(pts[i], results[i]);
        if (!bad.empty())
            std::printf("bad %zu %s\n", at, bad.c_str());
        std::printf("pd %zu %s\n", at,
                    pointDigest(pts[i], results[i]).c_str());
        kinst += static_cast<double>(results[i].committedTotal) / 1000.0;
        if (o.points) {
            printPoint(at, results[i].cycles, results[i].insts,
                       results[i].archSig, results[i].report);
        }
    }
    std::printf("points %zu\nfailed %zu\nhits %" PRIu64 "\n", pts.size(),
                failed, hits);
    std::printf("kinst %.17g\n", kinst);
    if (o.workload->id == WorkloadId::Fig10Sweep && !o.serial &&
        failed == 0) {
        const Accuracy a = fig10Accuracy(pts, results);
        std::printf("info ipc_err_pct %.17g\n", a.ipcErrPct);
        std::printf("info pri_gain_err_pp %.17g\n", a.priGainErrPp);
        std::printf("info infpr_gain_err_pp %.17g\n", a.infprGainErrPp);
    }
}

std::string
simulateOne(const sim::RunParams &p, sim::RunResult &out)
{
    try {
        ScopedErrorCapture capture;
        out = sim::simulate(p);
        return "";
    } catch (const std::exception &e) {
        return e.what();
    }
}

/** Drain @p pts through SimulationRunner(2) with automatic batch
 *  lanes, consulting and filling @p journal when non-null. */
std::vector<sim::SimulationRunner::Outcome>
drainRunner(const std::vector<sim::RunParams> &pts,
            sim::SweepJournal *journal)
{
    sim::SimulationRunner runner(2);
    runner.setBatchLanes(0);
    runner.setJournal(journal);
    return runner.runCaptured(pts);
}

void
unpack(std::vector<sim::SimulationRunner::Outcome> &outs,
       std::vector<sim::RunResult> &results,
       std::vector<std::string> &errors, uint64_t &hits)
{
    for (size_t i = 0; i < outs.size(); ++i) {
        if (outs[i].ok()) {
            results[i] = std::move(outs[i].result);
            hits += outs[i].fromJournal ? 1 : 0;
        } else {
            errors[i] = outs[i].error;
        }
    }
}

int
roleRep(const ChildOptions &o)
{
    const WorkloadId id = o.workload->id;
    auto pts = o.serial ? tracedPoints(id, o.seed, o.scale)
                        : workloadPoints(id, o.seed, o.scale);
    size_t first = 0;
    if (o.only >= 0) {
        if (static_cast<size_t>(o.only) >= pts.size()) {
            std::fprintf(stderr, "pri_perf: no point %ld\n", o.only);
            return 2;
        }
        first = static_cast<size_t>(o.only);
        pts = {pts[first]};
    }
    std::vector<sim::RunResult> results(pts.size());
    std::vector<std::string> errors(pts.size());
    uint64_t hits = 0;
    int64_t t_end = 0;
    if (usesRunner(id) && !o.serial) {
        std::unique_ptr<sim::SweepJournal> journal;
        if (!o.journal.empty())
            journal = std::make_unique<sim::SweepJournal>(o.journal);
        auto outs = drainRunner(pts, journal.get());
        t_end = nowNs();
        unpack(outs, results, errors, hits);
    } else {
        for (size_t i = 0; i < pts.size(); ++i)
            errors[i] = simulateOne(pts[i], results[i]);
        t_end = nowNs();
    }
    std::printf("t_end %" PRId64 "\n", t_end);
    printResults(o, pts, results, errors, hits, first);
    return 0;
}

int
roleSetup(const ChildOptions &o)
{
    const auto pts = workloadPoints(o.workload->id, o.seed, o.scale);
    if (o.workload->id == WorkloadId::WarmRerun) {
        // Set-up of the cache workload is a cold run that fills a
        // fresh journal.
        std::remove(o.journal.c_str());
        std::vector<sim::RunResult> results(pts.size());
        std::vector<std::string> errors(pts.size());
        uint64_t hits = 0;
        {
            sim::SweepJournal journal(o.journal);
            auto outs = drainRunner(pts, &journal);
            unpack(outs, results, errors, hits);
        }
        std::printf("t_ready %" PRId64 "\n", nowNs());
        printResults(o, pts, results, errors, hits);
        return 0;
    }
    // Everything a simulation builds before its first cycle: the
    // program, its compiled traces, the core (and golden checker).
    size_t failed = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
        try {
            ScopedErrorCapture capture;
            sim::SimInstance inst(pts[i]);
        } catch (const std::exception &e) {
            ++failed;
            std::printf("error %zu %s\n", i, firstLine(e.what()).c_str());
        }
    }
    std::printf("t_ready %" PRId64 "\n", nowNs());
    std::printf("points %zu\nfailed %zu\n", pts.size(), failed);
    return 0;
}

/** Simulated events summed over a traced pass. */
struct Counts
{
    std::map<std::string, double> v;

    void
    addStats(const StatGroup &stats)
    {
        static const char *const kNames[] = {
            "core.fetchedInsts",     "core.committedInsts",
            "core.issuedInsts",      "core.branchMispredicts",
            "core.btbMisses",        "core.replays",
            "core.squashedInsts",    "core.ckptsRestored",
            "core.loadForwards",     "core.stallNoPregInt",
            "core.stallNoPregFp",    "rename.destAllocs",
            "rename.srcImmReads",    "rename.srcPregReads",
            "rename.checkpointsCreated", "pri.earlyFrees",
            "er.earlyFrees",
        };
        for (const char *n : kNames)
            v[n] += stats.scalarValue(n);
    }

    void
    print() const
    {
        for (const auto &[name, value] : v)
            std::printf("count %s %.17g\n", name.c_str(), value);
    }
};

void
runPhase(SpanLog &log, const char *name, core::OutOfOrderCore &cpu,
         uint64_t insts, TimedChecker *timed)
{
    int32_t idx;
    {
        ScopedSpan s(log, name);
        idx = s.index();
        cpu.run(insts);
    }
    if (timed != nullptr)
        log.addAggregate("golden.check", idx, timed->take());
}

/**
 * The traced pass of a simulating workload: each point serially
 * through the calls SimInstance makes (program, traces, core,
 * checker, run(warmup), beginMeasurement, run(measure), finishRun,
 * report), one span per call.
 */
int
roleTracedSim(const ChildOptions &o)
{
    const auto pts = tracedPoints(o.workload->id, o.seed, o.scale);
    SpanLog log;
    Counts counts;
    std::vector<std::string> point_lines;
    for (size_t i = 0; i < pts.size(); ++i) {
        const sim::RunParams &p = pts[i];
        ScopedSpan point_span(log, "sim.point", static_cast<int32_t>(i));
        FlightRecorder &fr = flightRecorder();
        fr.clear();
        fr.setContext(sim::paramsSummary(p).c_str());

        std::shared_ptr<const workload::SyntheticProgram> prog;
        {
            ScopedSpan s(log, "workload.program_build");
            prog = std::make_shared<const workload::SyntheticProgram>(
                workload::profileByName(p.benchmark), p.seed);
        }
        const core::CoreConfig cfg = sim::coreConfigFor(p);
        std::shared_ptr<const workload::trace::ProgramTraces> traces;
        {
            ScopedSpan s(log, "workload.trace_acquire");
            traces = workload::trace::TraceCache::global().acquire(*prog);
        }
        StatGroup stats;
        std::unique_ptr<core::OutOfOrderCore> cpu;
        {
            ScopedSpan s(log, "core.build");
            cpu = std::make_unique<core::OutOfOrderCore>(cfg, *prog, stats,
                                                         traces);
        }
        cpu->setWallClockBudget(p.timeoutMs);

        std::unique_ptr<golden::DiffChecker> checker;
        std::unique_ptr<TimedChecker> timed;
        if (p.checkGolden) {
            ScopedSpan s(log, "golden.build");
            golden::DiffChecker::Options opt;
            opt.archCheckInterval = p.goldenAuditInterval;
            checker = std::make_unique<golden::DiffChecker>(*prog, opt);
            auto *core_ptr = cpu.get();
            checker->setAuditHook([core_ptr] { core_ptr->checkInvariants(); });
            timed = std::make_unique<TimedChecker>(*checker);
            cpu->setCommitObserver(timed.get());
        }

        runPhase(log, "core.run_warmup", *cpu, p.warmupInsts, timed.get());
        cpu->beginMeasurement();
        const uint64_t c0 = cpu->cycles();
        const uint64_t i0 = cpu->committedInsts();
        runPhase(log, "core.run_measure", *cpu, p.measureInsts, timed.get());
        if (checker) {
            ScopedSpan s(log, "golden.check");
            checker->finishRun();
        }
        std::string report;
        {
            ScopedSpan s(log, "common.stats_report");
            report = stats.report("  ");
        }

        counts.addStats(stats);
        const auto &wk = cpu->wakeupTelemetry();
        auto &mem = cpu->memory();
        counts.v["cycles"] += static_cast<double>(cpu->cycles());
        counts.v["committed"] += static_cast<double>(cpu->committedInsts());
        counts.v["wakeup.broadcasts"] += static_cast<double>(wk.broadcasts);
        counts.v["wakeup.selectScans"] +=
            static_cast<double>(wk.selectScans);
        counts.v["memory.dl1Hits"] += static_cast<double>(mem.dl1().hits());
        counts.v["memory.dl1Misses"] +=
            static_cast<double>(mem.dl1().misses());
        counts.v["memory.l2Hits"] += static_cast<double>(mem.l2().hits());
        counts.v["memory.l2Misses"] += static_cast<double>(mem.l2().misses());
        counts.v["golden.checked"] += checker
            ? static_cast<double>(checker->checkedCommits())
            : 0.0;

        Digest d;
        d.add(report);
        char line[160];
        std::snprintf(line, sizeof line,
                      "point %zu %" PRIu64 " %" PRIu64 " %016" PRIx64 " %s",
                      i, cpu->cycles() - c0, cpu->committedInsts() - i0,
                      cpu->archSignature(), d.hex().c_str());
        point_lines.emplace_back(line);
    }
    const int64_t t_end = nowNs();

    const auto tc = workload::trace::TraceCache::global().stats();
    counts.v["trace.compiled"] = static_cast<double>(tc.programsCompiled);
    counts.v["trace.shared"] = static_cast<double>(tc.programsShared);
    counts.v["trace.bytes"] = static_cast<double>(tc.traceBytes);

    std::printf("t_end %" PRId64 "\n", t_end);
    std::printf("points %zu\n", pts.size());
    log.print();
    counts.print();
    for (const auto &l : point_lines)
        std::printf("%s\n", l.c_str());
    return 0;
}

/** The traced warm pass: open the journal, drain the grid. */
int
roleTracedWarm(const ChildOptions &o)
{
    const auto pts = workloadPoints(o.workload->id, o.seed, o.scale);
    SpanLog log;
    std::unique_ptr<sim::SweepJournal> journal;
    std::vector<sim::SimulationRunner::Outcome> outs;
    {
        ScopedSpan s(log, "sim.cache_open");
        journal = std::make_unique<sim::SweepJournal>(o.journal);
    }
    {
        ScopedSpan s(log, "sim.runner");
        outs = drainRunner(pts, journal.get());
    }
    const int64_t t_end = nowNs();
    std::vector<sim::RunResult> results(pts.size());
    std::vector<std::string> errors(pts.size());
    uint64_t hits = 0;
    unpack(outs, results, errors, hits);
    std::printf("t_end %" PRId64 "\n", t_end);
    log.print();
    printResults(o, pts, results, errors, hits);
    return 0;
}

/** Walker::next/steer replay over each long_run program, alone; the
 *  fastest of five rounds (interference only slows a round down). */
int
roleWalker(const ChildOptions &o)
{
    const uint64_t n = 1000000 / o.scale;
    uint64_t sink = 0;
    std::vector<double> rounds;
    for (int round = 0; round < 5; ++round) {
        int64_t ns = 0;
        uint64_t steps = 0;
        for (const auto &[bench, seed] : walkerProbePrograms(o.seed)) {
            const workload::SyntheticProgram prog(
                workload::profileByName(bench), seed);
            const auto traces =
                workload::trace::TraceCache::global().acquire(prog);
            workload::Walker walker(prog, traces.get());
            const auto step = [&] {
                const auto wi = walker.next();
                sink ^= wi.resultValue ^ wi.memAddr;
                if (walker.branchPending())
                    walker.steer(wi, wi.taken, wi.actualTarget);
            };
            // Grow the call stack to its steady depth first.
            for (uint64_t i = 0; i < n / 10; ++i)
                step();
            const int64_t t0 = nowNs();
            for (uint64_t i = 0; i < n; ++i)
                step();
            ns += nowNs() - t0;
            steps += n;
        }
        rounds.push_back(static_cast<double>(ns) /
                         static_cast<double>(steps));
    }
    std::printf("walker_ns_per_inst %.17g\n",
                *std::min_element(rounds.begin(), rounds.end()));
    std::printf("walker_sink %" PRIu64 "\n", sink);
    return 0;
}

} // namespace

int
childMain(const ChildOptions &opts)
{
    dieWithParent();
    installCrashHandlers();
    if (opts.role == "setup")
        return roleSetup(opts);
    if (opts.role == "rep")
        return roleRep(opts);
    if (opts.role == "traced") {
        return opts.workload->id == WorkloadId::WarmRerun
            ? roleTracedWarm(opts)
            : roleTracedSim(opts);
    }
    if (opts.role == "walker")
        return roleWalker(opts);
    std::fprintf(stderr, "pri_perf: unknown child role '%s'\n",
                 opts.role.c_str());
    return 2;
}

} // namespace pri::perf
