/**
 * @file
 * Machine configuration (paper Table 1), written down once.
 *
 * kMachineTable holds what differs by machine width: the
 * conservative 4-wide current-generation model (32-entry scheduler)
 * and the aggressive 8-wide future model (512-entry scheduler, twice
 * the functional units, 10-bit narrow values). The constants below
 * it hold what both machines share: the 512-entry ROB, the 256-entry
 * LSQ and the pipeline; memory/cache.hh holds the shared caches and
 * branch/predictor.hh the shared predictor. CoreConfig carries only
 * what a caller varies.
 */

#ifndef PRI_CORE_CONFIG_HH
#define PRI_CORE_CONFIG_HH

#include <cstdint>

#include "common/logging.hh"
#include "faults/fault_spec.hh"
#include "rename/rename_unit.hh"

namespace pri::core
{

/**
 * Checker-validation fault injection (tests only). Each fault is a
 * deliberately planted bug that corrupts state *silently* — i.e.
 * without tripping the always-on internal assertions — so the golden
 * -model diff checker can prove it detects real corruption. Never
 * set outside tests.
 */
enum class InjectedFault : uint8_t
{
    None = 0,
    /**
     * Branch-misprediction recovery restores the walker with a stale
     * dynamic-index counter: every value, address, and outcome drawn
     * after the first recovery silently shifts off the committed
     * path. Invisible to the dataflow asserts (the core stays
     * self-consistent); only a reference model can see it.
     */
    StaleWalkerGidx,
    /**
     * Recovery re-steers the mispredicted branch down the *predicted*
     * direction instead of the actual one: the core commits the wrong
     * path. Again self-consistent, hence silent without a reference.
     */
    CommitWrongPath,
    /**
     * The select stage stops issuing once kWedgeAfterCommits
     * instructions have committed: everything in flight drains, then
     * the machine sits with frozen ROB/scheduler/free-list occupancy
     * and never commits again. Models a wedged-scheduler livelock;
     * exists to prove the forward-progress watchdog detects the
     * stall, dumps the flight recorder, and reports it per-run
     * instead of spinning the whole sweep forever.
     */
    WedgeScheduler,
    /**
     * The read-port arbiter grants one request too many: once per
     * cycle, an instruction denied ports for its source reads is
     * issued anyway — and, since the array has no bitlines left to
     * drive, its dest value in the observed commit stream is
     * garbage. The machine itself stays self-consistent (same
     * pattern as CommitWrongPath), so the bug is silent without the
     * diff checker and only the golden model's independent
     * recomputation flags it. Requires a finite prfReadPorts
     * budget.
     */
    PortOverGrant,
    /**
     * PRI frees a narrow destination's register without writing the
     * inlined value into the map, so the map names a free register
     * (see rename::RenameConfig::injectFreeWithoutInline). Caught by
     * the checker's invariant audit.
     */
    FreeWithoutInline,
};

/** Commit count at which WedgeScheduler freezes the select stage
 *  (early enough to wedge during any run's warmup). */
constexpr uint64_t kWedgeAfterCommits = 5000;

/** Identical livelock-audit signatures in a row that raise a
 *  Livelock stall (see CoreConfig::watchdogCycles). */
constexpr unsigned kWatchdogAuditWindows = 4;

/** One machine of paper Table 1 (a column there): what differs by
 *  width. */
struct MachineRow
{
    const char *label;  ///< the machine's name in Table 1
    unsigned width;     ///< fetch/issue/commit width
    unsigned schedSize; ///< scheduler entries
    // Functional units, each accepting one op per cycle.
    unsigned numIntAlu;
    unsigned numIntMultDiv;
    unsigned numFpAlu;
    unsigned numFpMultDiv;
    unsigned numMemPorts;
    /** Integer values of this many significant bits or fewer inline
     *  into the map (the map entry less its mode bit). */
    unsigned narrowBits;
};

inline constexpr MachineRow kMachineTable[] = {
    {"current generation", 4, 32, 4, 1, 2, 1, 2, 7},
    {"future machine", 8, 512, 8, 2, 4, 2, 4, 10},
};

/** The row of the @p width machine, or nullptr if Table 1 has none. */
constexpr const MachineRow *
machineRow(unsigned width)
{
    for (const auto &row : kMachineTable) {
        if (row.width == width)
            return &row;
    }
    return nullptr;
}

// Shared by both machines.
constexpr unsigned kRobSize = 512;
constexpr unsigned kLsqSize = 256;

// Pipeline shape (paper Figure 5):
// Fetch Decode | Rename | Queue Sched | Disp Disp RF RF | Exe
// | Retire | Commit  (12 stages).
constexpr unsigned kFetchToRename = 2;   ///< Fetch + Decode
constexpr unsigned kRenameToSelect = 2;  ///< Queue + Sched entry
constexpr unsigned kSelectToExe = 4;     ///< Disp, Disp, RF, RF
constexpr unsigned kExeToRetire = 1;     ///< writeback one stage later
constexpr unsigned kRedirectPenalty = 2; ///< resolve -> fetch restart
constexpr unsigned kBtbMissPenalty = 2;  ///< taken branch without a target

/** What one simulation varies on top of its Table 1 machine. */
struct CoreConfig
{
    unsigned width = 0;     ///< a kMachineTable row's width
    unsigned schedSize = 0; ///< the row's, unless an ablation sets it

    rename::RenameConfig rename;

    /**
     * PRF read ports granted per cycle across both register classes
     * (0 = unlimited, the paper's implicit assumption and the exact
     * pre-port-model behaviour). When finite, the select stage
     * requests one port per non-inlined source operand through an
     * age-ordered all-or-nothing arbiter (core/port_arbiter.hh);
     * losers stay in the scheduler and retry next cycle, counted by
     * the core.prfPort* stats. PRI-inlined operands read their
     * immediate from the map/payload and consume zero ports. Must be
     * 0 or >= 2 (a 2-source op could never issue on fewer).
     */
    unsigned prfReadPorts = 0;

    /** Planted bug for diff-checker validation; see InjectedFault. */
    InjectedFault injectFault = InjectedFault::None;

    /**
     * Declarative transient fault (soft-error campaign injection,
     * DESIGN.md §17). Unlike InjectedFault — persistent logic bugs
     * planted to validate the checker — this corrupts one storage
     * cell exactly once at a deterministic, counter-derived point
     * and then lets the machine run; the campaign layer classifies
     * what happened. Disabled (site None) in normal runs.
     */
    faults::FaultSpec faultSpec;

    /**
     * Forward-progress watchdog. The cycle loop raises a structured
     * core::ProgressStallError — carrying occupancy state and the
     * flight-recorder trace — instead of spinning forever on a
     * wedged machine. Two detectors:
     *
     *  - commit stall: no instruction has committed for
     *    watchdogCycles cycles (replaces the old hard-coded 500k
     *    panic). The threshold must sit far above the longest legal
     *    commit gap (an L2-miss burst is a few hundred cycles; a
     *    full-ROB drain behind one is a few thousand), so the
     *    default never trips on real configurations.
     *
     *  - frozen occupancy (livelock): across kWatchdogAuditWindows
     *    consecutive audit windows (watchdogCycles / 8 cycles each),
     *    *nothing* moved — no commit, fetch, issue, or replay, and
     *    ROB / scheduler / fetch-queue / free-list occupancy all
     *    identical. A hard wedge is caught in half the commit-stall
     *    threshold; anything still executing (even uselessly) does
     *    not match and falls through to the commit-stall detector.
     *
     * Detection is pure observation: no threshold changes a
     * simulation outcome, so reports stay byte-identical.
     */
    uint64_t watchdogCycles = 500000;

    /**
     * Hard per-run cycle budget (0 = unlimited): exceeding it raises
     * ProgressStallError. Sweep drivers and the config fuzzer set
     * this so a hang inside one point is a reported per-point
     * failure rather than a CI timeout.
     */
    uint64_t cycleBudget = 0;

    /** Cycles between livelock-audit snapshots. */
    uint64_t
    watchdogAuditWindow() const
    {
        const uint64_t w = watchdogCycles / 8;
        return w < 1024 ? 1024 : w;
    }

    /**
     * Checkpoint-pool capacity: one slot per branch that can be in
     * flight (ROB plus fetch queue), so the pool never fills and
     * never stalls fetch.
     */
    unsigned ckptPoolSize() const { return kRobSize + fetchQueueSize(); }

    /** Fetch-buffer capacity between fetch and rename. */
    unsigned fetchQueueSize() const { return 3 * width; }

    /** The @p width machine of Table 1 with rename config @p rn. */
    static CoreConfig
    of(unsigned width, const rename::RenameConfig &rn)
    {
        const MachineRow *row = machineRow(width);
        PRI_ASSERT(row != nullptr, "Table 1 has no machine that wide");
        CoreConfig c;
        c.width = width;
        c.schedSize = row->schedSize;
        c.rename = rn;
        return c;
    }
};

} // namespace pri::core

#endif // PRI_CORE_CONFIG_HH
