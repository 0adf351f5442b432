#include "sim_instance.hh"

#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/strfmt.hh"
#include "isa/reg.hh"
#include "workload/program.hh"

namespace pri::sim
{

namespace
{

/** Throw std::invalid_argument for a point no machine can run. */
template <typename... Args>
[[noreturn]] void
invalid(std::string_view fmt, Args &&...args)
{
    throw std::invalid_argument(
        "invalid run parameters: " +
        fmtStr(fmt, std::forward<Args>(args)...));
}

} // namespace

core::CoreConfig
coreConfigFor(const RunParams &params)
{
    if (params.width != 4 && params.width != 8)
        invalid("width {} (must be 4 or 8)", params.width);
    if (params.measureInsts == 0)
        invalid("measureInsts 0 (must be at least 1)");
    if (params.prfReadPorts == 1)
        invalid("prfReadPorts 1 (must be 0 for unlimited, or >= 2)");

    const unsigned narrow = params.narrowBitsOverride
        ? params.narrowBitsOverride
        : core::CoreConfig::narrowBitsForWidth(params.width);
    auto rn_cfg = rename::RenameConfig::of(params.scheme,
                                           params.physRegs, narrow);
    rn_cfg.injectFreeWithoutInline =
        params.injectFault == core::InjectedFault::FreeWithoutInline;
    const unsigned min_regs = isa::kNumLogicalRegs +
        (rn_cfg.policy().virtualPhysical ? rename::kVpReserve : 0);
    if (rn_cfg.numPhysRegs <= min_regs) {
        invalid("physRegs {} (must exceed {} under {})",
                rn_cfg.numPhysRegs, min_regs,
                schemeName(params.scheme));
    }
    core::CoreConfig cfg = params.width == 8
        ? core::CoreConfig::eightWide(rn_cfg)
        : core::CoreConfig::fourWide(rn_cfg);
    if (params.schedSizeOverride)
        cfg.schedSize = params.schedSizeOverride;
    cfg.prfReadPorts = params.prfReadPorts;
    cfg.injectFault = params.injectFault;
    cfg.faultSpec = params.faultSpec;

    if (params.watchdogCycles != 0)
        cfg.watchdogCycles = params.watchdogCycles;
    cfg.cycleBudget = params.cycleBudget;
    return cfg;
}

SimInstance::SimInstance(const RunParams &params) : params(params)
{
    // Validate before the workload is fetched, so a bad point builds
    // nothing.
    const core::CoreConfig cfg = coreConfigFor(params);
    work = workload::trace::TraceCache::global().workload(
        params.benchmark, params.seed);
    cpu = std::make_unique<core::OutOfOrderCore>(cfg, *work.program,
                                                 stats, work.traces);
    cpu->setWallClockBudget(params.timeoutMs);

    if (params.checkGolden ||
        std::getenv("PRI_CHECK_GOLDEN") != nullptr) {
        golden::DiffChecker::Options opt;
        opt.archCheckInterval = params.goldenAuditInterval;
        checker =
            std::make_unique<golden::DiffChecker>(*work.program, opt);
        auto *core_ptr = cpu.get();
        checker->setAuditHook(
            [core_ptr] { core_ptr->checkInvariants(); });
        cpu->setCommitObserver(checker.get());
    }
}

RunResult
SimInstance::run()
{
    cpu->run(params.warmupInsts);

    cpu->beginMeasurement();
    c0 = cpu->cycles();
    i0 = cpu->committedInsts();
    // Re-zero event counters so rates reflect the window only.
    mp0 = stats.scalarValue("core.branchMispredicts");
    br0 = stats.scalarValue("core.committedBranches");
    pf0 = stats.scalarValue("pri.earlyFrees");
    ef0 = stats.scalarValue("er.earlyFrees");
    nw0 = stats.scalarValue("pri.narrowResultsInt") +
        stats.scalarValue("pri.narrowResultsFp");
    da0 = stats.scalarValue("rename.destAllocs");
    ps0 = stats.scalarValue("core.prfPortStallOps");
    pr0 = stats.scalarValue("core.prfPortReads");
    pb0 = stats.scalarValue("core.prfPortInlineBypass");

    cpu->run(params.measureInsts);
    if (params.checkInvariants)
        cpu->checkInvariants();
    if (checker)
        checker->finishRun();
    return finish();
}

RunResult
SimInstance::finish()
{
    RunResult r;
    r.benchmark = params.benchmark;
    r.scheme = schemeName(params.scheme);
    r.width = params.width;
    r.cycles = cpu->cycles() - c0;
    r.insts = cpu->committedInsts() - i0;
    r.committedTotal = cpu->committedInsts();
    r.goldenChecked = checker ? checker->checkedCommits() : 0;
    // IPC from the same measurement-window deltas as cycles/insts,
    // so the three fields are always mutually consistent (a run
    // whose window deltas were taken here must never mix in whole-
    // run counts — speedups in Fig 10/12 divide these IPCs).
    r.ipc = r.cycles == 0
        ? 0.0
        : static_cast<double>(r.insts) /
            static_cast<double>(r.cycles);
    r.avgIntOccupancy = cpu->avgIntOccupancy();
    r.avgFpOccupancy = cpu->avgFpOccupancy();

    r.lifeAllocToWrite =
        stats.average("lifetime.allocToWrite").mean();
    r.lifeWriteToLastRead =
        stats.average("lifetime.writeToLastRead").mean();
    r.lifeLastReadToRelease =
        stats.average("lifetime.lastReadToRelease").mean();

    const double branches =
        stats.scalarValue("core.committedBranches") - br0;
    r.branchMispredictRate = branches > 0
        ? (stats.scalarValue("core.branchMispredicts") - mp0) /
            branches
        : 0.0;

    const double dl1_total = static_cast<double>(
        cpu->memory().dl1().hits() + cpu->memory().dl1().misses());
    r.dl1MissRate = dl1_total > 0
        ? cpu->memory().dl1().misses() / dl1_total
        : 0.0;

    const double insts_k = static_cast<double>(r.insts) / 1000.0;
    r.priEarlyFrees = insts_k > 0
        ? (stats.scalarValue("pri.earlyFrees") - pf0) / insts_k
        : 0.0;
    r.erEarlyFrees = insts_k > 0
        ? (stats.scalarValue("er.earlyFrees") - ef0) / insts_k
        : 0.0;

    const double dests =
        stats.scalarValue("rename.destAllocs") - da0;
    const double narrow_n =
        stats.scalarValue("pri.narrowResultsInt") +
        stats.scalarValue("pri.narrowResultsFp") - nw0;
    r.inlinedFrac = dests > 0 ? narrow_n / dests : 0.0;

    r.portStallsPerKInst = insts_k > 0
        ? (stats.scalarValue("core.prfPortStallOps") - ps0) / insts_k
        : 0.0;
    const double port_reads =
        stats.scalarValue("core.prfPortReads") - pr0;
    const double port_bypass =
        stats.scalarValue("core.prfPortInlineBypass") - pb0;
    r.portInlineBypassFrac = port_reads + port_bypass > 0
        ? port_bypass / (port_reads + port_bypass)
        : 0.0;

    r.archSig = cpu->archSignature();
    r.report = stats.report("  ");
    return r;
}

} // namespace pri::sim
