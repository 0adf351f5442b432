/**
 * @file
 * High-level simulation driver: the public API that examples and
 * benches use. One call = one benchmark × one machine width × one
 * register-management scheme × one register-file size, with warmup
 * and a measurement window, returning the metrics the paper reports.
 */

#ifndef PRI_SIM_SIMULATION_HH
#define PRI_SIM_SIMULATION_HH

#include <cstdint>
#include <string>

#include "core/core.hh"
#include "workload/profile.hh"

namespace pri::sim
{

/** The register-management schemes (rename::kSchemeTable). */
using rename::Scheme;
using rename::schemeName;

/** All schemes in figure order (Fig 10 / Fig 12 legends). */
constexpr Scheme kAllSchemes[] = {
    Scheme::Base,
    Scheme::EarlyRelease,
    Scheme::PriRefcountCkptcount,
    Scheme::PriRefcountLazy,
    Scheme::PriIdealCkptcount,
    Scheme::PriIdealLazy,
    Scheme::PriPlusEr,
    Scheme::InfinitePregs,
};

/** One simulation request. */
struct RunParams
{
    std::string benchmark = "gzip";
    unsigned width = 4;           ///< a core::kMachineTable width
    Scheme scheme = Scheme::Base;
    unsigned physRegs = 64;       ///< per class; ignored for InfPR
    uint64_t warmupInsts = 30000;
    uint64_t measureInsts = 100000;
    uint64_t seed = 42;
    bool checkInvariants = false; ///< run invariant checks at end
    /**
     * Lockstep-compare every committed instruction against the
     * golden in-order model; panics on first divergence. The
     * PRI_CHECK_GOLDEN environment variable forces this on for all
     * runs in the process (used by CI to diff-check the figure
     * harnesses unmodified).
     */
    bool checkGolden = false;
    /**
     * Commits between the checker's invariant audits
     * (OutOfOrderCore::checkInvariants). Small intervals tighten the
     * detection latency for corruption that is not visible through
     * commit values alone (at a simulation-speed cost).
     */
    unsigned goldenAuditInterval = 64;
    unsigned schedSizeOverride = 0;  ///< 0 = the width row's size
    unsigned narrowBitsOverride = 0; ///< 0 = the width row's bits
    /**
     * PRF read ports per cycle; 0 = unlimited (exactly the
     * pre-port-model machine, byte-identical reports). Finite
     * budgets must be >= 2; see core::CoreConfig::prfReadPorts.
     */
    unsigned prfReadPorts = 0;
    /** Planted bug for diff-checker validation (tests only). */
    core::InjectedFault injectFault = core::InjectedFault::None;
    /**
     * One-shot transient fault (soft-error campaign injection):
     * site + counter-based trigger + mutation, fully deterministic
     * and audited by paramsHash so campaign points journal and
     * content-address like any other sweep point. Disabled by
     * default. See faults::FaultSpec and DESIGN.md §17.
     */
    faults::FaultSpec faultSpec;
    /**
     * Forward-progress watchdog threshold (see
     * core::CoreConfig::watchdogCycles); 0 takes the built-in
     * default. The watchdog always runs and only observes.
     */
    uint64_t watchdogCycles = 0;
    /** Hard cycle budget, 0 = unlimited: exceeding it raises
     *  core::ProgressStallError instead of running forever. */
    uint64_t cycleBudget = 0;
    /** Per-run wall-clock budget in milliseconds (0 = none).
     *  Machine-dependent, so excluded from the params hash. */
    uint64_t timeoutMs = 0;
};

/** Headline metrics of one run. */
struct RunResult
{
    std::string benchmark;
    std::string scheme;
    unsigned width = 0;
    double ipc = 0.0;
    uint64_t cycles = 0;
    uint64_t insts = 0;

    uint64_t committedTotal = 0; ///< whole run incl. warmup
    uint64_t goldenChecked = 0;  ///< commits diff-checked (0 = off)

    double avgIntOccupancy = 0.0;
    double avgFpOccupancy = 0.0;

    // Register lifetime phases (paper Figures 1 and 8), in cycles.
    double lifeAllocToWrite = 0.0;
    double lifeWriteToLastRead = 0.0;
    double lifeLastReadToRelease = 0.0;

    double branchMispredictRate = 0.0; ///< per committed branch
    double dl1MissRate = 0.0;
    double priEarlyFrees = 0.0;        ///< per 1k committed insts
    double erEarlyFrees = 0.0;         ///< per 1k committed insts
    double inlinedFrac = 0.0;          ///< narrow results / dests

    // PRF read-port pressure (0.0 when ports are unlimited).
    double portStallsPerKInst = 0.0;   ///< denied issues / 1k insts
    /** Source operands served from the map as inlined immediates,
     *  as a fraction of all operands at issue — the port relief PRI
     *  buys (reads + bypasses = operands). */
    double portInlineBypassFrac = 0.0;

    /**
     * Order-sensitive hash of the committed instruction stream's
     * architecturally visible results (pc × dest value as read back
     * through the PRF at commit). Two runs that committed the same
     * values in the same order share it; a fault that corrupts a
     * committed value changes it even when no aggregate stat moves.
     * The campaign classifier uses it to tell Masked from silent
     * data corruption with the golden checker off.
     */
    uint64_t archSig = 0;

    /** Full stat report (for verbose output). */
    std::string report;
};

/** One metric of a RunResult: its name and its member. */
template <class T>
struct ResultField
{
    const char *name;
    T RunResult::*member;
};

/**
 * The metrics of a RunResult, declared once, in PRIJ3 line order.
 * The journal codec, the harnesses' seed average, their --json sink
 * and the tests iterate these tables. Counts are totals and add up
 * across seeds; rates are averaged. A new metric needs a member, a
 * row here, its value in SimInstance::finish(), a kResultTag bump
 * and the ResultCodec.PinsPrij3FieldList literal.
 */
constexpr ResultField<uint64_t> kResultCounts[] = {
    {"cycles", &RunResult::cycles},
    {"insts", &RunResult::insts},
    {"committedTotal", &RunResult::committedTotal},
    {"goldenChecked", &RunResult::goldenChecked},
};

constexpr ResultField<double> kResultRates[] = {
    {"ipc", &RunResult::ipc},
    {"avgIntOccupancy", &RunResult::avgIntOccupancy},
    {"avgFpOccupancy", &RunResult::avgFpOccupancy},
    {"lifeAllocToWrite", &RunResult::lifeAllocToWrite},
    {"lifeWriteToLastRead", &RunResult::lifeWriteToLastRead},
    {"lifeLastReadToRelease", &RunResult::lifeLastReadToRelease},
    {"branchMispredictRate", &RunResult::branchMispredictRate},
    {"dl1MissRate", &RunResult::dl1MissRate},
    {"priEarlyFrees", &RunResult::priEarlyFrees},
    {"erEarlyFrees", &RunResult::erEarlyFrees},
    {"inlinedFrac", &RunResult::inlinedFrac},
    {"portStallsPerKInst", &RunResult::portStallsPerKInst},
    {"portInlineBypassFrac", &RunResult::portInlineBypassFrac},
};

/**
 * Deterministic digest of every RunParams field that can change the
 * journaled result record (benchmark, machine shape, scheme, seed,
 * budgets, planted faults, read-port budget). Excludes fields that
 * provably cannot — watchdog settings, timeoutMs, checkInvariants,
 * goldenAuditInterval — so a journaled result stays valid across
 * machines and observation settings, and adding a presentation knob
 * to a harness never forks journal keys. checkGolden *is* hashed: it
 * changes the persisted RunResult.goldenChecked field, so a checked
 * request must never be satisfied by an unchecked run's record. Keys
 * the sweep journal.
 */
uint64_t paramsHash(const RunParams &params);

/** One-line human-readable summary (bench / scheme / width / pregs
 *  / seed) used in error prefixes and flight-recorder context. */
std::string paramsSummary(const RunParams &params);

/** Run one simulation. */
RunResult simulate(const RunParams &params);

} // namespace pri::sim

#endif // PRI_SIM_SIMULATION_HH
