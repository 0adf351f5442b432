/**
 * @file
 * pri_sim: command-line driver for single simulations and small
 * fault-tolerant sweeps.
 *
 * Usage:
 *   pri_sim [-b benchmark] [-w width] [-s scheme] [-p pregs]
 *           [-n measureInsts] [-u warmupInsts] [-S seed] [-v]
 *           [--read-ports N] [--check-golden]
 *           [--sweep N] [--jobs N] [--journal PATH]
 *           [--timeout-ms N] [--cycle-budget N]
 *           [--watchdog-cycles N]
 *           [--inject-fault KIND[@POINT]]
 *
 * Schemes: base er pri pri-lazy pri-ideal pri-ideal-lazy pri-er inf
 *          vp vp-pri
 *
 * `--sweep N` draws N points deterministically from the seed
 * (benchmark x scheme x register count, at the -w width) and runs
 * them through the pooled SimulationRunner. A point that stalls,
 * panics, or crashes is reported in a per-point error table on
 * stderr (exit status 2) while its siblings complete; with
 * `--journal` finished points are persisted as they land, so
 * rerunning the identical command after a crash re-simulates only
 * the missing points and prints a byte-identical table.
 * `--inject-fault wedge@3` plants a scheduler wedge in point 3 only
 * (the watchdog acceptance drill). The same flag also takes a
 * transient-fault spec, e.g. `--inject-fault map:flip:cycle=5000`
 * (one soft-error strike; see src/faults/fault_arg.hh for the
 * grammar).
 *
 * A single run's IPC, occupancy, mispredict, inlined and port lines
 * cover the measurement window only; the lines marked "whole run"
 * (register lifetimes, DL1 miss rate) and the `-v` stats report also
 * count the warm-up.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/hashing.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "faults/fault_arg.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"

namespace
{

using pri::parseFlagValue;

pri::sim::Scheme
parseScheme(const std::string &s)
{
    using pri::sim::Scheme;
    if (s == "base") return Scheme::Base;
    if (s == "er") return Scheme::EarlyRelease;
    if (s == "pri") return Scheme::PriRefcountCkptcount;
    if (s == "pri-lazy") return Scheme::PriRefcountLazy;
    if (s == "pri-ideal") return Scheme::PriIdealCkptcount;
    if (s == "pri-ideal-lazy") return Scheme::PriIdealLazy;
    if (s == "pri-er") return Scheme::PriPlusEr;
    if (s == "inf") return Scheme::InfinitePregs;
    if (s == "vp") return Scheme::VirtualPhysical;
    if (s == "vp-pri") return Scheme::VirtualPhysicalPlusPri;
    pri::fatal("unknown scheme '{}'", s);
}

/**
 * Draw sweep point @p i as a pure function of the seed: benchmark,
 * scheme, and register-file size vary; everything else comes from
 * the base params. Identical across --jobs counts and resumes.
 */
pri::sim::RunParams
drawSweepPoint(const pri::sim::RunParams &base, size_t i)
{
    static const pri::sim::Scheme schemes[] = {
        pri::sim::Scheme::Base,
        pri::sim::Scheme::EarlyRelease,
        pri::sim::Scheme::PriRefcountCkptcount,
        pri::sim::Scheme::PriPlusEr,
    };
    static const unsigned pregs[] = {48, 64, 80, 96};

    const auto &profiles = pri::workload::allProfiles();
    const auto pick = [&](uint64_t salt, size_t n) {
        return pri::hashRange(n, base.seed, i, salt);
    };
    pri::sim::RunParams p = base;
    p.benchmark = profiles[pick(101, profiles.size())].name;
    p.scheme = schemes[pick(102, std::size(schemes))];
    p.physRegs = pregs[pick(103, std::size(pregs))];
    return p;
}

void
printResult(const pri::sim::RunResult &r, unsigned pregs,
            unsigned read_ports, bool verbose)
{
    std::printf("benchmark %s  width %u  scheme %s  pregs %u\n",
                r.benchmark.c_str(), r.width, r.scheme.c_str(),
                pregs);
    std::printf("IPC %.4f  (insts %llu, cycles %llu)\n", r.ipc,
                static_cast<unsigned long long>(r.insts),
                static_cast<unsigned long long>(r.cycles));
    std::printf("occupancy INT %.1f  FP %.1f\n", r.avgIntOccupancy,
                r.avgFpOccupancy);
    std::printf("lifetime (whole run)  alloc->write %.1f  "
                "write->lastread %.1f  lastread->release %.1f\n",
                r.lifeAllocToWrite, r.lifeWriteToLastRead,
                r.lifeLastReadToRelease);
    std::printf("mispredict/branch %.4f  dl1 miss (whole run) %.4f  "
                "inlined %.3f\n",
                r.branchMispredictRate, r.dl1MissRate,
                r.inlinedFrac);
    if (read_ports != 0) {
        std::printf("read-ports %u  port-stalls/kinst %.2f  "
                    "inline-bypass %.3f\n",
                    read_ports, r.portStallsPerKInst,
                    r.portInlineBypassFrac);
    }
    if (r.goldenChecked > 0) {
        std::printf("golden-checked %llu commits, no divergence\n",
                    static_cast<unsigned long long>(
                        r.goldenChecked));
    }
    if (verbose)
        std::printf("\nwhole-run stats:\n%s", r.report.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    pri::installCrashHandlers();

    pri::sim::RunParams p;
    bool verbose = false;
    size_t sweep = 0;
    unsigned jobs = 1;
    std::string journal_path;
    pri::faults::FaultArg fault;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                pri::fatal("missing value for {}", a);
            return argv[++i];
        };
        if (a == "-b") {
            p.benchmark = next();
        } else if (a == "-w") {
            p.width = parseFlagValue<unsigned>(a, next());
        } else if (a == "-s") {
            p.scheme = parseScheme(next());
        } else if (a == "-p") {
            p.physRegs = parseFlagValue<unsigned>(a, next());
        } else if (a == "-n") {
            p.measureInsts = parseFlagValue<uint64_t>(a, next());
        } else if (a == "-u") {
            p.warmupInsts = parseFlagValue<uint64_t>(a, next());
        } else if (a == "-S") {
            p.seed = parseFlagValue<uint64_t>(a, next());
        } else if (a == "-v") {
            verbose = true;
        } else if (a == "--read-ports") {
            p.prfReadPorts = parseFlagValue<unsigned>(a, next());
        } else if (a == "--check-golden") {
            p.checkGolden = true;
        } else if (a == "--sweep") {
            sweep = parseFlagValue<size_t>(a, next());
        } else if (a == "--jobs") {
            jobs = parseFlagValue<unsigned>(a, next());
        } else if (a == "--journal") {
            journal_path = next();
        } else if (a == "--timeout-ms") {
            p.timeoutMs = parseFlagValue<uint64_t>(a, next());
        } else if (a == "--cycle-budget") {
            p.cycleBudget = parseFlagValue<uint64_t>(a, next());
        } else if (a == "--watchdog-cycles") {
            p.watchdogCycles = parseFlagValue<uint64_t>(a, next());
        } else if (a == "--inject-fault") {
            std::string err;
            if (!pri::faults::parseFaultArg(next(), fault, err))
                pri::fatal("{}", err);
        } else if (a == "-l" || a == "--list") {
            for (const auto &prof : pri::workload::allProfiles())
                std::printf("%s\n", prof.name.c_str());
            return 0;
        } else {
            std::fprintf(stderr,
                         "usage: pri_sim [-b bench] [-w width] "
                         "[-s scheme] [-p pregs] [-n insts] "
                         "[-u warmup] [-S seed] [-v] [-l] "
                         "[--read-ports N] "
                         "[--check-golden] [--sweep N] [--jobs N] "
                         "[--journal PATH] [--timeout-ms N] "
                         "[--cycle-budget N] "
                         "[--watchdog-cycles N] "
                         "[--inject-fault KIND[@POINT]]\n");
            return 1;
        }
    }

    p.checkInvariants = true;

    if (sweep == 0) {
        p.injectFault = fault.legacy;
        p.faultSpec = fault.spec;
        // simulate() throws on bad parameters (e.g. an unknown
        // benchmark name) so batch drivers can capture per-run
        // errors; at the CLI the equivalent is a clean fatal.
        const auto r = [&] {
            try {
                return pri::sim::simulate(p);
            } catch (const std::exception &e) {
                pri::fatal("{}", e.what());
            }
        }();
        printResult(r, p.physRegs, p.prfReadPorts, verbose);
        return 0;
    }

    // ---- sweep mode ----
    std::vector<pri::sim::RunParams> batch;
    batch.reserve(sweep);
    for (size_t i = 0; i < sweep; ++i) {
        auto point = drawSweepPoint(p, i);
        if (fault.point < 0 ||
            static_cast<size_t>(fault.point) == i) {
            point.injectFault = fault.legacy;
            point.faultSpec = fault.spec;
        }
        batch.push_back(std::move(point));
    }

    pri::sim::SweepJournal journal(journal_path);
    if (journal.loadedPoints() > 0) {
        std::fprintf(stderr,
                     "journal: resuming, %zu point(s) already "
                     "complete\n",
                     journal.loadedPoints());
    }

    pri::sim::SimulationRunner runner(jobs);
    if (journal.enabled())
        runner.setJournal(&journal);
    const auto outcomes = runner.runCaptured(batch);

    // The stdout table is emitted after the whole batch settles, in
    // submission order, from bit-exact (journaled or fresh) results
    // — byte-identical across --jobs counts and across resumes.
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const auto &o = outcomes[i];
        if (o.ok()) {
            std::printf("point %2zu  %-44s  IPC %.4f  cycles %llu\n",
                        i,
                        pri::sim::paramsSummary(batch[i]).c_str(),
                        o.result.ipc,
                        static_cast<unsigned long long>(
                            o.result.cycles));
        } else {
            std::printf("point %2zu  %-44s  %s\n", i,
                        pri::sim::paramsSummary(batch[i]).c_str(),
                        o.stalled ? "STALLED" : "FAILED");
        }
    }

    const std::string failures =
        pri::sim::SimulationRunner::describeFailures(outcomes);
    if (!failures.empty()) {
        std::fprintf(stderr, "\n%s", failures.c_str());
        // Full (multi-line) errors, flight-recorder dumps included.
        for (size_t i = 0; i < outcomes.size(); ++i) {
            if (!outcomes[i].ok()) {
                std::fprintf(stderr, "\n%s\n",
                             outcomes[i].error.c_str());
            }
        }
        return 2;
    }
    return 0;
}
