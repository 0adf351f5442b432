/**
 * @file
 * Machine configuration (paper Table 1).
 *
 * Two presets: the conservative 4-wide current-generation model
 * (32-entry scheduler) and the aggressive 8-wide future model
 * (512-entry scheduler). Both use 512-entry ROBs, 256-entry LSQs,
 * and 64 INT + 64 FP physical registers by default.
 */

#ifndef PRI_CORE_CONFIG_HH
#define PRI_CORE_CONFIG_HH

#include <cstdint>

#include "faults/fault_spec.hh"
#include "memory/cache.hh"
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
};

/** Commit count at which WedgeScheduler freezes the select stage
 *  (early enough to wedge during any run's warmup). */
constexpr uint64_t kWedgeAfterCommits = 5000;

/** Identical livelock-audit signatures in a row that raise a
 *  Livelock stall (see CoreConfig::watchdogCycles). */
constexpr unsigned kWatchdogAuditWindows = 4;

/** Full machine configuration for one simulation. */
struct CoreConfig
{
    unsigned width = 4;       ///< fetch/issue/commit width
    unsigned robSize = 512;
    unsigned lsqSize = 256;
    unsigned schedSize = 32;

    rename::RenameConfig rename;
    memory::HierarchyParams mem;

    // Functional units.
    unsigned numIntAlu = 4;
    unsigned numIntMultDiv = 1;
    unsigned numFpAlu = 2;
    unsigned numFpMultDiv = 1;
    unsigned numMemPorts = 2;

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

    // Pipeline shape (paper Figure 5):
    // Fetch Decode | Rename | Queue Sched | Disp Disp RF RF | Exe
    // | Retire | Commit  (12 stages).
    unsigned fetchToRename = 2;   ///< Fetch + Decode
    unsigned renameToSelect = 2;  ///< Queue + Sched entry
    unsigned selectToExe = 4;     ///< Disp, Disp, RF, RF
    unsigned exeToRetire = 1;     ///< writeback one stage later
    unsigned redirectPenalty = 2; ///< resolve -> fetch restart
    unsigned btbMissPenalty = 2;  ///< taken branch without a target

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
    unsigned ckptPoolSize() const { return robSize + fetchQueueSize(); }

    /** Fetch-buffer capacity between fetch and rename. */
    unsigned fetchQueueSize() const { return 3 * width; }

    /** Table 1, left column (with the given rename scheme). */
    static CoreConfig fourWide(const rename::RenameConfig &rn);
    /** Table 1, right column. */
    static CoreConfig eightWide(const rename::RenameConfig &rn);

    /** Narrow-value width the paper assigns per machine width. */
    static unsigned
    narrowBitsForWidth(unsigned width)
    {
        return width >= 8 ? 10 : 7;
    }
};

} // namespace pri::core

#endif // PRI_CORE_CONFIG_HH
