/**
 * @file
 * The out-of-order core: a 12-stage, N-wide superscalar timing model
 * with speculative scheduling and selective replay, derived from the
 * paper's SimpleScalar/sim-outorder base (paper §4, Figure 5).
 *
 * Pipeline: Fetch Decode | Rename | Queue Sched | Disp Disp RF RF |
 * Exe | Retire | Commit. Instructions are scheduled assuming fixed
 * latencies (loads assume DL1 hits); latency mispredictions replay
 * the dependent instructions only (selective recovery). Branches
 * execute down the real wrong path of the synthetic program until
 * they resolve. Register management — including Physical Register
 * Inlining and Early Release — is delegated to rename::RenameUnit.
 */

#ifndef PRI_CORE_CORE_HH
#define PRI_CORE_CORE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "branch/predictor.hh"
#include "common/flight_recorder.hh"
#include "common/stats.hh"
#include "common/undo_journal.hh"
#include "core/checkpoint_pool.hh"
#include "core/config.hh"
#include "core/event_wheel.hh"
#include "core/lsq.hh"
#include "core/port_arbiter.hh"
#include "memory/cache.hh"
#include "rename/rename_unit.hh"
#include "workload/walker.hh"

namespace pri::core
{

/** Sentinel "never" cycle. */
constexpr uint64_t kNever = ~uint64_t{0};

/**
 * Hot half of a reorder-buffer entry: exactly the state the
 * per-cycle wakeup/select loops read (payload RAM, readiness,
 * scheduling flags). Kept dense and separate from RobCold so
 * processEvents/selectStage touch ~1/10th of the bytes the old
 * monolithic RobEntry dragged through the cache.
 */
struct RobHot
{
    uint64_t seq = 0; ///< selection age (== wi.seq)
    uint64_t readyForSelect = 0;

    // Payload RAM: source operands as renamed.
    std::array<rename::SrcRead, 2> src;

    isa::OpClass cls = isa::OpClass::Nop;
    isa::RegClass dstCls = isa::RegClass::Int;
    isa::PhysRegId dstPreg = isa::kInvalidPhysReg;

    bool valid = false;
    bool inScheduler = false;
    bool heldSlot = false; ///< selected; still holds a sched slot
    bool inReadyList = false; ///< linked into the event ready list
    bool hasDst = false;
    bool isBranch = false;
};

/**
 * Simulator-side wakeup/select instrumentation, kept as plain
 * counters *outside* the StatGroup on purpose. These count the
 * simulator's own bookkeeping (list walks, bitmap scans), not
 * machine events, so they belong in no result: registering them
 * would change every stats report, and with it every pinned result
 * digest, journal record and store entry, for no modelled
 * behaviour. bench/perf reads them to report select scans and
 * broadcasts per cycle.
 */
struct WakeupTelemetry
{
    uint64_t broadcasts = 0;     ///< availability broadcasts walked
    uint64_t consumersWoken = 0; ///< consumers examined by broadcasts
    uint64_t wakeupsDrained = 0; ///< timed wakeups verified
    uint64_t readyInserts = 0;   ///< ready-list insertions
    uint64_t selectScans = 0;    ///< entries examined by select
    uint64_t readyOccAccum = 0;  ///< per-cycle select-pool occupancy
};

/**
 * Cold half of a reorder-buffer entry: retire/commit bookkeeping and
 * branch-recovery state, touched once per instruction rather than
 * every scheduling cycle. A branch carries only the 8-byte CkptRef;
 * its recovery state lives in the checkpoint pool.
 */
struct RobCold
{
    workload::WInst wi;

    isa::RegId dst = isa::noReg();
    uint64_t dstGen = 0;
    rename::MapEntry prevMap;
    uint64_t prevGen = 0;
    /** Dest value as read through the rename unit right after
     *  writeback (commit-record fallback once the register has been
     *  legitimately early-released). */
    uint64_t wbValue = 0;

    // Progress.
    bool executed = false;
    bool retired = false;
    bool hasLsq = false;
    /** PortOverGrant already corrupted this result (a replayed op
     *  may be over-granted twice; XOR garbage must apply once). */
    bool portCorrupted = false;
    unsigned replays = 0;
    uint64_t fetchCycle = 0;
    uint64_t renameCycle = 0;

    // Branch state.
    bool predTaken = false;
    bool usedPredictor = false; ///< conditional: tables were read
    bool resolvedMispredict = false;
    bool ckptResolved = false;
    uint64_t predTarget = 0;
    rename::CkptId ckptId = 0;
    branch::PredictToken bpTok;
    CkptRef ckptRef; ///< pooled front-end recovery state
};

/**
 * Hot-path counters interned against the StatGroup once at core
 * construction. The cycle loop updates these through the cached
 * references; the string-keyed map is only consulted when stats are
 * read out by name (StatGroup::scalarValue / report).
 */
struct CoreStats
{
    explicit CoreStats(StatGroup &sg);

    StatScalar &replays;
    StatScalar &loadForwards;
    StatScalar &loadMisses;
    StatScalar &branchMispredicts;
    StatScalar &targetMispredicts;
    StatScalar &squashedInsts;
    StatScalar &committedBranches;
    StatScalar &committedInsts;
    StatScalar &issuedInsts;
    StatScalar &stallRobFull;
    StatScalar &stallSchedFull;
    StatScalar &stallLsqFull;
    StatScalar &stallNoPregInt;
    StatScalar &stallNoPregFp;
    StatScalar &renamedInsts;
    StatScalar &fetchStallCycles;
    StatScalar &icacheMissStalls;
    StatScalar &btbMisses;
    StatScalar &fetchedInsts;
    /** Reallocations of cycle-loop scratch buffers. Zero in steady
     *  state once the buffers are hoisted and warmed up. */
    StatScalar &scratchGrowths;
    /** Branch checkpoints taken at fetch. */
    StatScalar &ckptsTaken;
    /** Checkpoints restored by misprediction recovery. */
    StatScalar &ckptsRestored;
};

/**
 * Architectural view of one committed instruction, handed to the
 * retire-time observer at the commit stage. The destination value is
 * read back *through the rename machinery* (the PRF entry while the
 * producer still owns it, else the value captured at writeback), so
 * rename/free-list corruption is observable here rather than masked
 * by the walker's functional bookkeeping.
 */
struct CommitRecord
{
    uint64_t seq = 0;   ///< walker fetch sequence (diagnostics)
    uint64_t pc = 0;
    isa::OpClass op = isa::OpClass::Nop;
    isa::RegId dst = isa::noReg();
    uint64_t value = 0;   ///< dest value via the rename unit / PRF
    uint64_t memAddr = 0; ///< effective address (loads/stores)
    bool taken = false;   ///< actual direction (branches)
    uint64_t target = 0;  ///< actual taken-path target (branches)
};

/**
 * Retire-time observer: invoked once per committed instruction, in
 * commit order, from the commit stage. Implemented by the golden
 * model's DiffChecker; null (the default) costs the cycle loop one
 * predictable branch.
 */
class CommitObserver
{
  public:
    virtual ~CommitObserver() = default;
    virtual void onCommit(const CommitRecord &rec) = 0;
};

/**
 * Structured forward-progress diagnostic raised by the watchdog: a
 * snapshot of the machine's occupancy at detection time, so the
 * harness (and a human reading the error table) can tell a commit
 * stall from a hard livelock from a blown budget without a rerun.
 */
struct ProgressStall
{
    enum class Kind : uint8_t
    {
        CommitStall, ///< no commit for watchdogCycles cycles
        Livelock,    ///< occupancy frozen across audit windows
        CycleBudget, ///< cfg.cycleBudget exceeded
        WallClock,   ///< per-run wall-clock deadline exceeded
    };

    Kind kind = Kind::CommitStall;
    uint64_t cycle = 0;
    uint64_t lastCommitCycle = 0;
    uint64_t committed = 0;
    unsigned robCount = 0;
    unsigned schedCount = 0;
    unsigned schedHeld = 0;
    unsigned fetchCount = 0;
    unsigned occInt = 0; ///< INT PRF occupancy
    unsigned occFp = 0;  ///< FP PRF occupancy

    /** Stable display name of @p kind ("commit-stall", ...). */
    static const char *kindName(Kind kind);

    /** One-line human-readable summary of the stall state. */
    std::string describe() const;
};

/**
 * Exception carrying a ProgressStall out of the cycle loop. what()
 * holds the described stall, the active run context, and the
 * flight-recorder trace; the runner maps it to a per-run outcome.
 */
class ProgressStallError : public std::runtime_error
{
  public:
    ProgressStallError(const ProgressStall &stall, std::string msg)
        : std::runtime_error(std::move(msg)), stall(stall)
    {
    }

    ProgressStall stall;
};

/** Execution-driven out-of-order core simulator. */
class OutOfOrderCore
{
  public:
    /**
     * @p shared_traces, when non-null, supplies the compiled
     * micro-traces of @p program directly (SimInstance passes the
     * ones TraceCache::workload() returned) instead of acquiring
     * them from the global TraceCache.
     */
    OutOfOrderCore(
        const CoreConfig &config,
        const workload::SyntheticProgram &program, StatGroup &stats,
        std::shared_ptr<const workload::trace::ProgramTraces>
            shared_traces = nullptr);

    /**
     * Simulate until @p commit_target more instructions commit. A
     * run that cannot get there ends in ProgressStallError: the
     * watchdog, cfg.cycleBudget and the wall-clock budget bound it.
     */
    void run(uint64_t commit_target);

    /** Start a fresh measurement window (after warmup). */
    void beginMeasurement();

    uint64_t cycles() const { return cycle; }
    uint64_t committedInsts() const { return nCommitted; }

    /** Committed IPC inside the current measurement window. */
    double ipc() const;

    /** Average PRF occupancy (INT) in the measurement window. */
    double avgIntOccupancy() const;
    /** Average PRF occupancy (FP) in the measurement window. */
    double avgFpOccupancy() const;

    StatGroup &stats() { return sg; }
    memory::MemoryHierarchy &memory() { return mem; }

    /** Validate cross-module invariants; panics on violation. */
    void checkInvariants() const;

    /** Install (or clear, with nullptr) the retire-time observer.
     *  The observer must outlive the core or be cleared first. */
    void setCommitObserver(CommitObserver *obs) { observer = obs; }

    /** Wakeup/select instrumentation (bench-only; see the type). */
    const WakeupTelemetry &wakeupTelemetry() const { return wk; }

    /**
     * Order-sensitive hash over every committed instruction's (pc,
     * dest value read through the rename unit / PRF). Identical
     * runs share it; corruption of a committed value changes it
     * even when no aggregate stat moves. The fault campaign's
     * Masked-vs-SDC discriminator when the golden checker is off.
     */
    uint64_t archSignature() const { return archSig_; }

    /**
     * Arm a wall-clock budget for subsequent run() calls: once
     * @p timeout_ms milliseconds elapse (checked every few thousand
     * cycles), run() raises ProgressStallError{WallClock}. 0 clears
     * the deadline. Observation only — a run that finishes within
     * its budget is byte-identical to an unbudgeted one.
     */
    void setWallClockBudget(uint64_t timeout_ms);

  private:
    enum class EventType : uint8_t
    {
        ExeStart,
        ExeComplete,
        Retire,
    };

    /** A squashed destination awaiting its free-list return. */
    struct Freed
    {
        isa::RegClass cls;
        isa::PhysRegId preg;
        uint64_t gen;
    };

    // --- pipeline stages (called once per cycle) ---
    void processEvents();
    void commitStage();
    void selectStage();
    void renameStage();
    void fetchStage();

    // --- event handlers ---
    void onExeStart(uint32_t idx);
    void onExeComplete(uint32_t idx);
    void onRetire(uint32_t idx);

    void resolveBranch(uint32_t idx);
    void squashAfter(uint32_t branch_idx);

    void scheduleEvent(uint64_t when, EventType type, uint32_t idx);
    void replayInst(uint32_t idx);

    // --- event-driven wakeup ---
    /** Ready-list head for (cls, preg)'s consumer list. */
    int32_t &consHeadRef(isa::RegClass cls, isa::PhysRegId p);
    /** Link source slot @p s of entry @p idx onto its producer's
     *  consumer list (rename time). */
    void consLink(uint32_t idx, unsigned s);
    /** Unlink source slot @p s (completion / squash / inline). */
    void consUnlink(uint32_t idx, unsigned s);
    /** Insert into the seq-sorted ready list (drops any pending
     *  timed wakeup). */
    void readyInsert(uint32_t idx);
    /** Remove from the ready list (issue / squash). */
    void readyRemove(uint32_t idx);
    /** Predicted earliest select cycle for @p idx from current
     *  specAvail; false when a source's producer is unscheduled
     *  (its broadcast re-verifies). */
    bool predictReadyCycle(uint32_t idx, uint64_t &when) const;
    /** Re-arm a parked entry that failed select's readiness
     *  recheck (prediction regressed while parked). */
    void scanDefer(uint32_t idx);
    /** Schedule (or pull earlier) a timed wakeup for @p idx. */
    void scheduleWake(uint32_t idx, uint64_t when);
    /** Drain this cycle's wake bucket, verifying each entry. */
    void drainWakeups();
    /**
     * Recompute readiness of a waiting scheduler entry: insert into
     * the ready list if every source is spec-ready now, schedule a
     * timed wakeup if every source has a finite predicted time, or
     * leave it to its unscheduled producer's broadcast otherwise.
     */
    void wakeVerify(uint32_t idx);
    /** Walk (cls, preg)'s consumer list, re-verifying every waiting
     *  consumer after its predicted availability changed. */
    void broadcastAvail(isa::RegClass cls, isa::PhysRegId preg);
    /** O(consumers) ideal-PRI payload rewrite via the consumer
     *  list (paper §3.3's payload-CAM search-and-update). */
    void idealInlineRewrite(isa::RegClass cls, isa::PhysRegId preg,
                            uint64_t value);

    /** Release a pooled checkpoint and trim the undo journals to
     *  the oldest checkpoint still live. */
    void releaseCkptRef(CkptRef &ref);

    /** Flush the fetch ring, releasing any pooled refs it holds. */
    void flushFetchBuffer();

    /** Restore the walker from a branch checkpoint, applying the
     *  configured fault injection (checker validation only). */
    void restoreWalker(const workload::WalkerCkpt &ckpt);

    /** Steer the restored walker past a resolved branch (actual
     *  outcome, unless fault injection commits the wrong path). */
    void steerResolvedBranch(const RobCold &c);

    /** Dest value read through the rename unit: the PRF entry while
     *  the producer still owns (preg, gen), else @p fallback. */
    uint64_t readThroughValue(isa::RegClass cls, isa::PhysRegId preg,
                              uint64_t gen, uint64_t fallback) const;

    /** Any valid, unretired entry in the non-circular ROB index
     *  range [lo, hi)? Serviced by the unretiredBits bitmap. */
    bool anyUnretiredInRange(uint32_t lo, uint32_t hi) const;

    // --- transient-fault injection (cfg.faultSpec) ---
    /**
     * Count one access to @p site for the NthAccess trigger; arms
     * the pending flag once the configured ordinal is reached. The
     * strike itself is deferred to the top of the next cycle so
     * firing is a single sequencing point regardless of which stage
     * counted the access (byte-identical across jobs/journal paths).
     */
    void noteFaultAccess(faults::FaultSite site);
    /** Apply the configured mutation at the configured site, once.
     *  A site with no live target fires as a harmless no-op. */
    void fireFault();
    /** WakeLink site: corrupt one consumer-list link. */
    bool applyWakeLinkFault(uint64_t rnd);

    // --- forward-progress watchdog ---
    /** Per-cycle progress checks; raises ProgressStallError. */
    void watchdogCheck();
    /** Build + throw the structured stall diagnostic. */
    [[noreturn]] void raiseStall(ProgressStall::Kind kind);

    // --- PRF read-port arbitration (cfg.prfReadPorts != 0) ---
    /**
     * Request read ports for every non-inlined source of @p idx
     * (select calls in age order, after the FU check and before any
     * resource is consumed). Grants update the port stats; a denial
     * counts a structural stall and leaves the entry in the
     * scheduler to retry next cycle. Under
     * InjectedFault::PortOverGrant the first denial each cycle is
     * granted anyway and the result corrupted (see the fault doc).
     */
    bool portRequest(uint32_t idx);

    bool srcSpecReady(const rename::SrcRead &s) const;
    bool srcActualReady(const rename::SrcRead &s) const;
    uint64_t &specAvail(isa::RegClass cls, isa::PhysRegId p);
    uint64_t &actualAvail(isa::RegClass cls, isa::PhysRegId p);

    unsigned fuIndex(isa::OpClass cls) const;

    CoreConfig cfg;
    /** Functional units per fuIndex() class: cfg's Table 1 row. */
    std::array<unsigned, 5> fuCount_{};
    StatGroup &sg;
    CoreStats st;
    const workload::SyntheticProgram &prog;
    /** Compiled micro-traces shared via the global TraceCache.
     *  Declared before the walker, which borrows the raw pointer for
     *  its lifetime. */
    std::shared_ptr<const workload::trace::ProgramTraces> traces;
    workload::Walker walker;
    rename::RenameUnit rn;
    memory::MemoryHierarchy mem;
    branch::CombinedPredictor predictor;
    branch::Btb btb;
    branch::Ras ras;
    Lsq lsq;

    // ROB (circular, struct-of-arrays: hot scheduling state dense,
    // cold retire/bookkeeping state aside).
    std::vector<RobHot> robHot;
    std::vector<RobCold> robCold;
    /** One bit per ROB slot: valid && !retired. Lets the retire
     *  stage's "all older retired?" privilege check scan words
     *  instead of walking entries. */
    std::vector<uint64_t> unretiredBits;
    uint32_t robHead = 0;
    uint32_t robTail = 0;
    uint32_t robCount = 0;

    // Scheduler occupancy: entries waiting to issue, plus slots held
    // by selected-but-incomplete instructions (selective recovery
    // keeps them allocated until completion).
    unsigned schedHeld = 0;
    unsigned schedCount_ = 0;

    // Event-driven wakeup state (all fixed-size, allocated once in
    // the constructor).
    //
    // Consumer lists: one intrusive doubly-linked list per
    // (class, preg), holding every in-flight source operand renamed
    // to that register. Node id = robIdx * 2 + srcSlot; a node is
    // linked exactly while its SrcRead is a live pointer read
    // (valid && !imm && refHeld), i.e. exactly the payload-RAM
    // entries an ideal-PRI inline must rewrite.
    std::array<std::vector<int32_t>, 2> consHead_;
    struct ConsLinks
    {
        int32_t next = -1;
        int32_t prev = -1;
    };
    std::vector<ConsLinks> cons_; ///< one pair per source node

    // Ready set: one bit per ROB slot; a *superset* of the ready
    // entries (lazy: entries whose predicted readiness regressed
    // stay set and are skipped by select's exact readiness
    // recheck). Age order is free — iterating the ring from robHead
    // visits slots in rename (seq) order — so insert/remove are
    // single bit flips instead of sorted-list surgery.
    std::vector<uint64_t> readyBits_;
    unsigned readyCount_ = 0;

    // Timed wakeups: at most one pending per ROB slot, so select's
    // drain and the squash unwind are O(1) per entry.
    SlotWheel wakes_;

    WakeupTelemetry wk;

    // PRF read-port arbitration (cfg.prfReadPorts != 0; inert and
    // cost-free when unlimited). The stat pointers are registered
    // only for finite budgets: StatGroup::report() prints every
    // registered stat, and unlimited-port reports must stay
    // byte-identical to the pre-port-model output.
    ReadPortArbiter portArb_;
    StatScalar *stPortReads = nullptr;      ///< ports granted
    StatScalar *stPortInlineBypass = nullptr; ///< imm srcs at issue
    StatScalar *stPortStallOps = nullptr;   ///< denied issue attempts
    StatScalar *stPortStallCycles = nullptr; ///< cycles with a denial
    bool portFaultFiredThisCycle_ = false;

    // Fetch queue between fetch and rename: a fixed ring of
    // cfg.fetchQueueSize() slots, reused forever.
    struct FetchedInst
    {
        workload::WInst wi;
        uint64_t readyAt = 0;
        uint64_t fetchCycle = 0;
        bool isBranch = false;
        bool predTaken = false;
        uint64_t predTarget = 0;
        bool usedPredictor = false;
        branch::PredictToken bpTok;
        CkptRef ckptRef; ///< pooled front-end recovery state
    };
    std::vector<FetchedInst> fetchBuf;
    uint32_t fetchHead = 0;
    uint32_t fetchCount = 0;
    uint64_t fetchResumeCycle = 0;

    // Branch checkpointing: one pool slot per in-flight branch.
    CheckpointPool ckptPool;
    /** Undo journal for specArch: one record per renamed
     *  destination, unwound on misprediction recovery instead of
     *  copying the whole array per branch. */
    struct ArchUndo
    {
        uint64_t value;
        uint16_t flat;
    };
    UndoJournal<ArchUndo> archJournal;

    // Per-physical-register availability (timing scoreboard).
    std::array<std::vector<uint64_t>, 2> specAvail_;
    std::array<std::vector<uint64_t>, 2> actualAvail_;

    // Speculative architectural values, for dataflow checking.
    std::array<uint64_t, 2 * isa::kNumLogicalRegs> specArch{};

    // Execute/retire events: at most one pending per ROB slot. Each
    // bucket has two FIFO lists, drained in order: completions and
    // retires (kFirstPass), then execution starts.
    static constexpr unsigned kFirstPass = 0;
    static constexpr unsigned kStartPass = 1;
    SlotWheel events_;

    /**
     * Wakeups predicted at most this many cycles out skip the wake
     * wheel and park in the ready list immediately; select's
     * predicate skips them until the cycle arrives. One lazy scan
     * per cycle costs less than a wheel link/unlink pair, so the
     * wheel is reserved for far wakeups (load misses, long FP).
     */
    static constexpr uint64_t kNearWake = 8;

    // Squash scratch, hoisted out of the cycle loop so steady state
    // allocates nothing: it keeps the capacity it has grown.
    std::vector<Freed> freedScratch;

    CommitObserver *observer = nullptr;

    /** This thread's flight recorder, resolved once at construction
     *  (each simulation runs entirely on the thread that built it). */
    FlightRecorder *flight;

    // Forward-progress watchdog state (observation only).
    /** Occupancy/activity signature compared across audit windows. */
    std::array<uint64_t, 10> wdSig{};
    uint64_t wdNextAudit = 0;
    unsigned wdFrozenWindows = 0;
    bool wdSigValid = false;
    std::chrono::steady_clock::time_point wdDeadline{};
    bool wdHasDeadline = false;

    // Transient-fault injection state (cfg.faultSpec; inert when
    // the spec is disabled).
    uint64_t archSig_ = 0;
    uint64_t faultFireCycle_ = kNever; ///< cycle-derived triggers
    uint64_t faultAccesses_ = 0;       ///< NthAccess counter
    bool faultPending_ = false; ///< access trigger reached; fire next
    bool faultFired_ = false;

    uint64_t cycle = 0;
    uint64_t nCommitted = 0;
    uint64_t markCycle = 0;
    uint64_t markCommitted = 0;
    double markOccIntAccum = 0;
    double markOccFpAccum = 0;
    uint64_t lastCommitCycle = 0;
};

} // namespace pri::core

#endif // PRI_CORE_CORE_HH
