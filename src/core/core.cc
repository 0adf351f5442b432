#include "core.hh"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <bit>

#include "common/hashing.hh"
#include "common/logging.hh"
#include "common/strfmt.hh"
#include "isa/op_class.hh"
#include "workload/trace/trace_cache.hh"

namespace pri::core
{

CoreStats::CoreStats(StatGroup &sg)
    : replays(sg.scalar("core.replays")),
      loadForwards(sg.scalar("core.loadForwards")),
      loadMisses(sg.scalar("core.loadMisses")),
      branchMispredicts(sg.scalar("core.branchMispredicts")),
      targetMispredicts(sg.scalar("core.targetMispredicts")),
      squashedInsts(sg.scalar("core.squashedInsts")),
      committedBranches(sg.scalar("core.committedBranches")),
      committedInsts(sg.scalar("core.committedInsts")),
      issuedInsts(sg.scalar("core.issuedInsts")),
      stallRobFull(sg.scalar("core.stallRobFull")),
      stallSchedFull(sg.scalar("core.stallSchedFull")),
      stallLsqFull(sg.scalar("core.stallLsqFull")),
      stallNoPregInt(sg.scalar("core.stallNoPregInt")),
      stallNoPregFp(sg.scalar("core.stallNoPregFp")),
      renamedInsts(sg.scalar("core.renamedInsts")),
      fetchStallCycles(sg.scalar("core.fetchStallCycles")),
      icacheMissStalls(sg.scalar("core.icacheMissStalls")),
      btbMisses(sg.scalar("core.btbMisses")),
      fetchedInsts(sg.scalar("core.fetchedInsts")),
      scratchGrowths(sg.scalar("core.scratchGrowths")),
      ckptsTaken(sg.scalar("core.ckptsTaken")),
      ckptsRestored(sg.scalar("core.ckptsRestored"))
{
    // The checkpoint pool is sized never to fill
    // (CoreConfig::ckptPoolSize), so fetch never stalls on it. The
    // stat stays registered, at 0, so every stats report and result
    // digest keeps its line.
    sg.scalar("core.ckptPoolStalls");
}

namespace
{

/**
 * Fix glibc's heap thresholds once, before the first core reserves
 * its checkpoint ring. Sweeps build and drop ~1.2 MB cores back to
 * back. Under glibc's dynamic thresholds, freeing the mmapped
 * 520 KiB ring raises the trim threshold to ~1.07 MB, so whenever a
 * core lands at the heap top its destruction returns the top to the
 * OS and the next core faults it back in: 22-51k minor faults per
 * fig10 set-up depending on the seed, and a 16-byte change to this
 * class flipped which seeds thrashed. The values are the ceiling
 * the dynamic thresholds can reach on 64-bit glibc (32 MiB mmap,
 * twice that to trim), fixed from the start. Sanitizer runtimes
 * replace malloc and ignore the call.
 */
void
fixHeapThresholds()
{
#ifdef __GLIBC__
    static const bool fixed = [] {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
        return true;
    }();
    (void)fixed;
#endif
}

} // namespace

OutOfOrderCore::OutOfOrderCore(
    const CoreConfig &config,
    const workload::SyntheticProgram &program, StatGroup &stats,
    std::shared_ptr<const workload::trace::ProgramTraces>
        shared_traces)
    : cfg(config), sg(stats), st(stats), prog(program),
      traces(shared_traces ? std::move(shared_traces)
                           : workload::trace::TraceCache::global()
                                 .acquire(program)),
      walker(program, traces.get()),
      rn(config.rename, stats),
      mem(config.mem),
      lsq(config.lsqSize), robHot(config.robSize),
      robCold(config.robSize), wakes_(config.robSize, 1),
      portArb_(config.prfReadPorts),
      fetchBuf(config.fetchQueueSize()),
      ckptPool(config.ckptPoolSize()), events_(config.robSize, 2),
      flight(&flightRecorder())
{
    fixHeapThresholds();
    wdNextAudit = cfg.watchdogAuditWindow();
    if (cfg.faultSpec.enabled()) {
        // Cycle-derived triggers resolve to a concrete fire cycle
        // up front; NthAccess counts site accesses instead. Either
        // way the strike lands at the top of one specific cycle —
        // a single sequencing point, so the faulted run is byte-
        // identical across jobs/journal paths.
        const auto &fs = cfg.faultSpec;
        if (fs.trigger == faults::FaultTrigger::AtCycle) {
            faultFireCycle_ = fs.triggerArg;
        } else if (fs.trigger == faults::FaultTrigger::SeededDraw) {
            faultFireCycle_ =
                hashRange(fs.triggerArg, fs.seed,
                          static_cast<uint64_t>(fs.site),
                          static_cast<uint64_t>(fs.mutation));
        }
    }
    if (cfg.prfReadPorts != 0) {
        // A 2-source op can never issue on fewer than 2 ports: the
        // all-or-nothing arbiter would deny it forever.
        PRI_ASSERT(cfg.prfReadPorts >= 2,
                   "prfReadPorts must be 0 (unlimited) or >= 2");
        stPortReads = &sg.scalar("core.prfPortReads");
        stPortInlineBypass = &sg.scalar("core.prfPortInlineBypass");
        stPortStallOps = &sg.scalar("core.prfPortStallOps");
        stPortStallCycles = &sg.scalar("core.prfPortStallCycles");
    } else {
        PRI_ASSERT(cfg.injectFault != InjectedFault::PortOverGrant,
                   "PortOverGrant requires a finite port budget");
    }
    for (auto cls : {0, 1}) {
        specAvail_[cls].assign(cfg.rename.renameTagSpace(), 0);
        actualAvail_[cls].assign(cfg.rename.renameTagSpace(), 0);
    }
    unretiredBits.assign((cfg.robSize + 63) / 64, 0);

    for (auto cls : {0, 1})
        consHead_[cls].assign(cfg.rename.renameTagSpace(), -1);
    cons_.assign(2 * cfg.robSize, ConsLinks{});
    readyBits_.assign((cfg.robSize + 63) / 64, 0);

    // Pre-size the squash buffer so the steady state never touches
    // the heap: a squash frees at most one dest per ROB slot.
    freedScratch.reserve(cfg.robSize);

    // Only renamed branches hold rename checkpoints, so the ROB bounds
    // their live count; reserving it keeps createCheckpoint
    // allocation-free at any new high-water mark.
    rn.reserveCheckpoints(cfg.robSize);

    // One arch-undo record per in-flight dest-writer bounds the
    // journals' live spans; size for that plus the dead prefix the
    // trim policy tolerates, so steady state never grows.
    archJournal.reserveForLiveSpan(cfg.robSize + cfg.fetchQueueSize());
    ras.reserveJournal(cfg.robSize + cfg.fetchQueueSize());

    // Ideal-PRI payload rewrite: convert every in-flight consumer of
    // (cls, preg) to carry the inlined immediate (paper §3.3's
    // fully-associative payload RAM search-and-update), by walking
    // the register's consumer list — O(consumers).
    rn.setIdealInlineHook([this](isa::RegClass cls,
                                 isa::PhysRegId preg,
                                 uint64_t value) {
        idealInlineRewrite(cls, preg, value);
    });
}

uint64_t &
OutOfOrderCore::specAvail(isa::RegClass cls, isa::PhysRegId p)
{
    return specAvail_[static_cast<unsigned>(cls)][p];
}

uint64_t &
OutOfOrderCore::actualAvail(isa::RegClass cls, isa::PhysRegId p)
{
    return actualAvail_[static_cast<unsigned>(cls)][p];
}

bool
OutOfOrderCore::srcSpecReady(const rename::SrcRead &s) const
{
    if (!s.valid || s.imm)
        return true;
    return specAvail_[static_cast<unsigned>(s.cls)][s.preg] <=
        cycle + cfg.selectToExe;
}

bool
OutOfOrderCore::srcActualReady(const rename::SrcRead &s) const
{
    if (!s.valid || s.imm)
        return true;
    return actualAvail_[static_cast<unsigned>(s.cls)][s.preg] <=
        cycle;
}

unsigned
OutOfOrderCore::fuIndex(isa::OpClass cls) const
{
    using isa::OpClass;
    switch (cls) {
      case OpClass::IntMult:
      case OpClass::IntDiv: return 1;
      case OpClass::FpAdd: return 2;
      case OpClass::FpMult:
      case OpClass::FpDiv: return 3;
      case OpClass::Load:
      case OpClass::Store: return 4;
      default: return 0; // IntAlu, Branch, Nop
    }
}

void
OutOfOrderCore::scheduleEvent(uint64_t when, EventType type,
                              uint32_t idx)
{
    PRI_ASSERT(when > cycle && when - cycle < SlotWheel::kHorizon,
               "event beyond wheel horizon");
    events_.push(idx, when,
                 type == EventType::ExeStart ? kStartPass : kFirstPass,
                 static_cast<uint8_t>(type));
}

// ---------------------------------------------------------------
// Event-driven wakeup
//
// These helpers run several times per committed instruction, so
// they carry no per-operation asserts; checkInvariants() audits
// every structural invariant (list membership <-> flags, sort
// order, counts) after each run and under the golden checker.
// ---------------------------------------------------------------

int32_t &
OutOfOrderCore::consHeadRef(isa::RegClass cls, isa::PhysRegId p)
{
    return consHead_[static_cast<unsigned>(cls)][p];
}

void
OutOfOrderCore::consLink(uint32_t idx, unsigned s)
{
    const auto &sr = robHot[idx].src[s];
    const int32_t node = static_cast<int32_t>(idx * 2 + s);
    int32_t &head = consHeadRef(sr.cls, sr.preg);
    cons_[node].prev = -1;
    cons_[node].next = head;
    if (head != -1)
        cons_[head].prev = node;
    head = node;
    noteFaultAccess(faults::FaultSite::WakeLink);
}

void
OutOfOrderCore::consUnlink(uint32_t idx, unsigned s)
{
    const auto &sr = robHot[idx].src[s];
    const int32_t node = static_cast<int32_t>(idx * 2 + s);
    const int32_t nx = cons_[node].next;
    const int32_t pv = cons_[node].prev;
    if (nx != -1)
        cons_[nx].prev = pv;
    if (pv != -1)
        cons_[pv].next = nx;
    else
        consHeadRef(sr.cls, sr.preg) = nx;
    cons_[node].next = -1;
    cons_[node].prev = -1;
}

void
OutOfOrderCore::readyInsert(uint32_t idx)
{
    RobHot &e = robHot[idx];
    if (wakes_.pending(idx))
        wakes_.unlink(idx);
    e.inReadyList = true;
    ++readyCount_;
    ++wk.readyInserts;
    readyBits_[idx / 64] |= uint64_t{1} << (idx % 64);
}

void
OutOfOrderCore::readyRemove(uint32_t idx)
{
    robHot[idx].inReadyList = false;
    --readyCount_;
    readyBits_[idx / 64] &= ~(uint64_t{1} << (idx % 64));
}

void
OutOfOrderCore::scheduleWake(uint32_t idx, uint64_t when)
{
    PRI_ASSERT(when > cycle && when - cycle < SlotWheel::kHorizon,
               "wakeup beyond wheel horizon");
    if (wakes_.pending(idx)) {
        // Keep the minimum: an earlier pending wakeup re-verifies
        // and reschedules if the entry is still not ready then.
        if (wakes_.at(idx) <= when)
            return;
        wakes_.unlink(idx);
    }
    wakes_.push(idx, when, 0);
}

void
OutOfOrderCore::drainWakeups()
{
    // Re-verification only schedules into later buckets, so popping
    // one at a time drains exactly the wakeups due this cycle.
    for (int32_t n; (n = wakes_.pop(cycle, 0)) != -1;) {
        ++wk.wakeupsDrained;
        wakeVerify(static_cast<uint32_t>(n));
    }
}

void
OutOfOrderCore::wakeVerify(uint32_t idx)
{
    RobHot &e = robHot[idx];
    if (!e.inScheduler || e.inReadyList)
        return;
    uint64_t when;
    if (!predictReadyCycle(idx, when)) {
        // Producer unscheduled: its select broadcast re-verifies
        // this entry (the consumer-list link persists until
        // completion).
        return;
    }
    if (when <= cycle + kNearWake)
        readyInsert(idx);
    else
        scheduleWake(idx, when);
}

bool
OutOfOrderCore::predictReadyCycle(uint32_t idx, uint64_t &when) const
{
    const RobHot &e = robHot[idx];
    when = e.readyForSelect;
    for (const auto &s : e.src) {
        if (!s.valid || s.imm)
            continue;
        const uint64_t a =
            specAvail_[static_cast<unsigned>(s.cls)][s.preg];
        if (a == kNever)
            return false;
        // Earliest select cycle at which the source counts as
        // spec-ready: specAvail <= cycle + selectToExe.
        const uint64_t rt =
            a > cfg.selectToExe ? a - cfg.selectToExe : 0;
        when = std::max(when, rt);
    }
    return true;
}

void
OutOfOrderCore::scanDefer(uint32_t idx)
{
    // A parked entry failed select's readiness recheck: its
    // prediction regressed after it entered the ready set (load
    // miss, replay). Re-predict instead of leaving it to be
    // re-scanned and skipped every cycle -- a load-miss consumer
    // would otherwise linger for the full miss round-trip. Re-entry
    // happens no later than the entry can next become ready (timed
    // wake at the recomputed cycle, or the unscheduled producer's
    // broadcast), so select still sees a superset of the ready
    // entries and issue decisions are unchanged.
    uint64_t when;
    if (!predictReadyCycle(idx, when)) {
        readyRemove(idx);
        return;
    }
    if (when > cycle + kNearWake) {
        readyRemove(idx);
        scheduleWake(idx, when);
    }
    // Near wakes stay parked: unlink/relink churn costs more than
    // a few lazy skips.
}

void
OutOfOrderCore::broadcastAvail(isa::RegClass cls,
                               isa::PhysRegId preg)
{
    ++wk.broadcasts;
    for (int32_t n = consHead_[static_cast<unsigned>(cls)][preg];
         n != -1; n = cons_[n].next) {
        ++wk.consumersWoken;
        wakeVerify(static_cast<uint32_t>(n) >> 1);
    }
}

void
OutOfOrderCore::idealInlineRewrite(isa::RegClass cls,
                                   isa::PhysRegId preg,
                                   uint64_t value)
{
    int32_t n = consHead_[static_cast<unsigned>(cls)][preg];
    while (n != -1) {
        const int32_t next = cons_[n].next;
        const uint32_t idx = static_cast<uint32_t>(n) >> 1;
        auto &s = robHot[idx].src[n & 1];
        PRI_ASSERT(s.valid && !s.imm && s.refHeld &&
                       s.cls == cls && s.preg == preg,
                   "consumer list out of sync with payload RAM");
        consUnlink(idx, static_cast<unsigned>(n & 1));
        rn.consumerSquashed(s); // releases the reference
        s.imm = true;
        s.value = value;
        s.preg = isa::kInvalidPhysReg;
        // No readiness change: the producer completed long before
        // this writeback-time inline, so the source was already
        // spec-ready and stays so as an immediate.
        n = next;
    }
    PRI_ASSERT(consHead_[static_cast<unsigned>(cls)][preg] == -1);
}

void
OutOfOrderCore::run(uint64_t commit_target)
{
    const uint64_t target = nCommitted + commit_target;
    while (nCommitted < target) {
        if (cfg.faultSpec.enabled() && !faultFired_ &&
            (faultPending_ || cycle >= faultFireCycle_)) {
            fireFault();
        }
        rn.beginCycle(cycle);
        processEvents();
        commitStage();
        selectStage();
        renameStage();
        fetchStage();
        watchdogCheck();
        ++cycle;
    }
}

const char *
ProgressStall::kindName(Kind kind)
{
    switch (kind) {
      case Kind::CommitStall: return "commit-stall";
      case Kind::Livelock:    return "livelock";
      case Kind::CycleBudget: return "cycle-budget";
      case Kind::WallClock:   return "wall-clock";
    }
    return "?";
}

std::string
ProgressStall::describe() const
{
    return fmtStr("{} at cycle {}: last commit at cycle {}, {} "
                  "committed; rob {}, sched {}+{}, fetchq {}, "
                  "prf INT {} FP {}",
                  kindName(kind), cycle, lastCommitCycle, committed,
                  robCount, schedCount, schedHeld, fetchCount,
                  occInt, occFp);
}

void
OutOfOrderCore::setWallClockBudget(uint64_t timeout_ms)
{
    wdHasDeadline = timeout_ms != 0;
    if (wdHasDeadline) {
        wdDeadline = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(timeout_ms);
    }
}

void
OutOfOrderCore::raiseStall(ProgressStall::Kind kind)
{
    ProgressStall s;
    s.kind = kind;
    s.cycle = cycle;
    s.lastCommitCycle = lastCommitCycle;
    s.committed = nCommitted;
    s.robCount = robCount;
    s.schedCount = schedCount_;
    s.schedHeld = schedHeld;
    s.fetchCount = fetchCount;
    s.occInt = rn.occupancy(isa::RegClass::Int);
    s.occFp = rn.occupancy(isa::RegClass::Fp);
    std::string msg = "forward-progress watchdog: " + s.describe();
    const char *ctx = flight->context();
    if (ctx[0] != '\0') {
        msg += "\nrun: ";
        msg += ctx;
    }
    msg += "\n";
    msg += flight->dump();
    throw ProgressStallError(s, std::move(msg));
}

void
OutOfOrderCore::watchdogCheck()
{
    if (cfg.cycleBudget != 0 && cycle >= cfg.cycleBudget)
        raiseStall(ProgressStall::Kind::CycleBudget);

    // Wall clock polls on a coarse stride: one steady_clock read per
    // ~4k cycles is invisible in the profile but bounds overshoot to
    // a few milliseconds of simulation.
    if (wdHasDeadline && (cycle & 0xfff) == 0 &&
        std::chrono::steady_clock::now() > wdDeadline) {
        raiseStall(ProgressStall::Kind::WallClock);
    }

    if (cycle - lastCommitCycle > cfg.watchdogCycles)
        raiseStall(ProgressStall::Kind::CommitStall);

    // Livelock audit: sample an activity signature once per window.
    // Any motion at all — a commit, fetch, issue, replay, squash, or
    // an occupancy change anywhere — resets the frozen-window count,
    // so long-latency bursts (which keep fetching and issuing, or at
    // minimum change occupancy as the miss returns) never match;
    // only a hard wedge holds the signature bit-for-bit still.
    if (cycle >= wdNextAudit) {
        wdNextAudit = cycle + cfg.watchdogAuditWindow();
        const std::array<uint64_t, 10> sig = {
            nCommitted,
            static_cast<uint64_t>(st.fetchedInsts.value()),
            static_cast<uint64_t>(st.issuedInsts.value()),
            static_cast<uint64_t>(st.replays.value()),
            static_cast<uint64_t>(st.squashedInsts.value()),
            robCount,
            schedCount_ + schedHeld,
            fetchCount,
            rn.occupancy(isa::RegClass::Int),
            rn.occupancy(isa::RegClass::Fp),
        };
        if (wdSigValid && sig == wdSig) {
            if (++wdFrozenWindows >= kWatchdogAuditWindows)
                raiseStall(ProgressStall::Kind::Livelock);
        } else {
            wdFrozenWindows = 0;
        }
        wdSig = sig;
        wdSigValid = true;
    }
}

// ---------------------------------------------------------------
// Transient-fault injection (cfg.faultSpec; DESIGN.md §17)
// ---------------------------------------------------------------

void
OutOfOrderCore::noteFaultAccess(faults::FaultSite site)
{
    const auto &fs = cfg.faultSpec;
    if (fs.site != site ||
        fs.trigger != faults::FaultTrigger::NthAccess ||
        faultFired_ || faultPending_) {
        return;
    }
    if (++faultAccesses_ >= fs.triggerArg)
        faultPending_ = true;
}

void
OutOfOrderCore::fireFault()
{
    faultFired_ = true;
    faultPending_ = false;
    const auto &fs = cfg.faultSpec;
    // Every in-mutation choice (which register, which bit, which
    // neighbour) draws from the spec seed — counter-based, so the
    // same spec always strikes the same cell the same way.
    const uint64_t rnd =
        hashCombine(fs.seed, cycle, 0x6d757461746521ULL);
    bool applied = false;
    switch (fs.site) {
      case faults::FaultSite::PrfValue:
      case faults::FaultSite::MapTable:
      case faults::FaultSite::FreeList:
      case faults::FaultSite::CkptNode:
        applied = rn.applyFault(fs, rnd);
        break;
      case faults::FaultSite::WakeLink:
        applied = applyWakeLinkFault(rnd);
        break;
      case faults::FaultSite::LsqForward:
        applied = lsq.applyFault(fs.mutation, rnd);
        break;
      case faults::FaultSite::None:
        break;
    }
    // Forensics: the strike itself lands in the flight ring, so a
    // crash/hang dump shows when and where the particle hit.
    flight->record(FlightEvent::Note, cycle, 0,
                   static_cast<uint64_t>(fs.site), applied ? 1 : 0);
}

bool
OutOfOrderCore::applyWakeLinkFault(uint64_t rnd)
{
    const unsigned tags = cfg.rename.renameTagSpace();
    const unsigned total = 2 * tags;
    const unsigned start =
        static_cast<unsigned>(hashRange(total, rnd, 1));
    for (unsigned k = 0; k < total; ++k) {
        const unsigned flat = (start + k) % total;
        int32_t &head = consHead_[flat / tags][flat % tags];
        if (head == -1)
            continue;
        switch (cfg.faultSpec.mutation) {
          case faults::FaultMutation::BitFlip: {
            // A flipped link pointer: the head consumer drops off
            // its producer's list and will never see the wakeup.
            const int32_t h = head;
            head = cons_[h].next;
            if (head != -1)
                cons_[head].prev = -1;
            cons_[h].next = -1;
            cons_[h].prev = -1;
            break;
          }
          case faults::FaultMutation::StaleValue:
          case faults::FaultMutation::ZeroEntry:
            // The head pointer itself is struck: the whole list is
            // forgotten.
            head = -1;
            break;
        }
        return true;
    }
    return false;
}

void
OutOfOrderCore::beginMeasurement()
{
    markCycle = cycle;
    markCommitted = nCommitted;
    markOccIntAccum = sg.scalarValue("rename.occupancyIntAccum");
    markOccFpAccum = sg.scalarValue("rename.occupancyFpAccum");
}

double
OutOfOrderCore::ipc() const
{
    const uint64_t c = cycle - markCycle;
    return c == 0 ? 0.0
                  : static_cast<double>(nCommitted - markCommitted) /
            static_cast<double>(c);
}

double
OutOfOrderCore::avgIntOccupancy() const
{
    const uint64_t c = cycle - markCycle;
    if (c == 0)
        return 0.0;
    return (sg.scalarValue("rename.occupancyIntAccum") -
            markOccIntAccum) /
        static_cast<double>(c);
}

double
OutOfOrderCore::avgFpOccupancy() const
{
    const uint64_t c = cycle - markCycle;
    if (c == 0)
        return 0.0;
    return (sg.scalarValue("rename.occupancyFpAccum") -
            markOccFpAccum) /
        static_cast<double>(c);
}

// ---------------------------------------------------------------
// Event processing
// ---------------------------------------------------------------

void
OutOfOrderCore::processEvents()
{
    // Completions must be visible before same-cycle execution
    // starts: a dependent beginning execution this cycle picks its
    // operand off the bypass network from a producer completing this
    // cycle. Processing ExeStart first would mis-detect a latency
    // misprediction and replay every back-to-back dependent pair.
    //
    // A squash triggered by a branch resolving here unlinks the dead
    // slots' events, including later ones in this bucket, and every
    // handler schedules strictly later cycles, so popping one event
    // at a time visits exactly this cycle's live events in order.
    for (const unsigned pass : {kFirstPass, kStartPass}) {
        for (int32_t n; (n = events_.pop(cycle, pass)) != -1;) {
            const uint32_t idx = static_cast<uint32_t>(n);
            switch (static_cast<EventType>(events_.tag(idx))) {
              case EventType::ExeStart:
                onExeStart(idx);
                break;
              case EventType::ExeComplete:
                onExeComplete(idx);
                break;
              case EventType::Retire:
                onRetire(idx);
                break;
            }
        }
    }
}

void
OutOfOrderCore::replayInst(uint32_t idx)
{
    RobHot &e = robHot[idx];
    ++st.replays;
    robCold[idx].replays += 1;
    flight->record(FlightEvent::Replay, cycle, robCold[idx].wi.pc,
                   e.seq, e.hasDst ? e.dstPreg : ~0u);
    if (e.hasDst) {
        specAvail(e.dstCls, e.dstPreg) = kNever;
        actualAvail(e.dstCls, e.dstPreg) = kNever;
    }
    PRI_ASSERT(e.heldSlot);
    e.heldSlot = false;
    --schedHeld;
    e.inScheduler = true;
    e.readyForSelect = cycle + 1;
    ++schedCount_;
    // readyForSelect = cycle + 1 floors the wake in the future, so a
    // replayed entry is eligible no earlier than next cycle's select.
    wakeVerify(idx);
}

void
OutOfOrderCore::onExeStart(uint32_t idx)
{
    RobHot &e = robHot[idx];
    // Speculative scheduling validation: all operands must actually
    // be available now, else selective replay.
    for (const auto &s : e.src) {
        if (!srcActualReady(s)) {
            replayInst(idx);
            return;
        }
    }
    // Operands validated: the instruction can no longer be replayed,
    // so its scheduler slot is released ("known safe").
    PRI_ASSERT(e.heldSlot);
    e.heldSlot = false;
    --schedHeld;

    unsigned lat;
    if (isa::isLoad(e.cls)) {
        const workload::WInst &wi = robCold[idx].wi;
        const bool fwd = lsq.forwardHit(wi.seq, wi.memAddr);
        unsigned mem_lat;
        if (fwd) {
            mem_lat = cfg.mem.dl1.latency;
            ++st.loadForwards;
        } else {
            mem_lat = mem.dataAccess(wi.memAddr, false);
        }
        if (mem_lat > cfg.mem.dl1.latency)
            ++st.loadMisses;
        lat = 1 + mem_lat;
    } else {
        lat = isa::execLatency(e.cls);
    }

    if (e.hasDst) {
        // The true completion time is now known. Re-broadcast only
        // when it differs from the select-time prediction (load
        // misses): waiting consumers re-verify against the moved
        // target, already-ready ones are re-checked at select.
        uint64_t &sa = specAvail(e.dstCls, e.dstPreg);
        const bool changed = sa != cycle + lat;
        sa = cycle + lat;
        if (changed)
            broadcastAvail(e.dstCls, e.dstPreg);
    }
    scheduleEvent(cycle + lat, EventType::ExeComplete, idx);
}

void
OutOfOrderCore::onExeComplete(uint32_t idx)
{
    RobHot &e = robHot[idx];
    robCold[idx].executed = true;

    if (e.hasDst) {
        // Completion confirms the exe-start time; re-broadcast only
        // in the (not normally reachable) case it differs.
        uint64_t &sa = specAvail(e.dstCls, e.dstPreg);
        const bool changed = sa != cycle;
        sa = cycle;
        actualAvail(e.dstCls, e.dstPreg) = cycle;
        if (changed)
            broadcastAvail(e.dstCls, e.dstPreg);
    }
    // Consumers are done with their operands (reads happened in the
    // RF stages / bypass on the way here); their consumer-list
    // links retire with them.
    for (unsigned i = 0; i < 2; ++i) {
        auto &s = e.src[i];
        if (s.valid && !s.imm && s.refHeld)
            consUnlink(idx, i);
        rn.consumerDone(s);
    }

    if (e.isBranch)
        resolveBranch(idx);

    scheduleEvent(cycle + cfg.exeToRetire, EventType::Retire, idx);
}

bool
OutOfOrderCore::anyUnretiredInRange(uint32_t lo, uint32_t hi) const
{
    if (lo >= hi)
        return false;
    const uint32_t wlo = lo / 64;
    const uint32_t whi = (hi - 1) / 64;
    const uint64_t lo_mask = ~uint64_t{0} << (lo % 64);
    const uint64_t hi_mask = ~uint64_t{0} >> (63 - (hi - 1) % 64);
    if (wlo == whi)
        return (unretiredBits[wlo] & lo_mask & hi_mask) != 0;
    if ((unretiredBits[wlo] & lo_mask) != 0)
        return true;
    for (uint32_t w = wlo + 1; w < whi; ++w) {
        if (unretiredBits[w] != 0)
            return true;
    }
    return (unretiredBits[whi] & hi_mask) != 0;
}

uint64_t
OutOfOrderCore::readThroughValue(isa::RegClass cls,
                                 isa::PhysRegId preg, uint64_t gen,
                                 uint64_t fallback) const
{
    if (rn.isAllocated(cls, preg) && rn.physRegGen(cls, preg) == gen)
        return rn.physRegValue(cls, preg);
    // The producer no longer owns the register: it was legitimately
    // released early (PRI inline / ER), so the value observed at
    // writeback stands in.
    return fallback;
}

void
OutOfOrderCore::onRetire(uint32_t idx)
{
    RobHot &e = robHot[idx];
    RobCold &c = robCold[idx];
    if (e.hasDst) {
        // Under virtual-physical renaming the writeback claims
        // storage and can stall. Only the *oldest unretired*
        // instructions may dip into the reserved pool: every commit
        // behind them is guaranteed, and each dest-writer commit
        // frees one older value, so the machine always drains. A
        // looser rule (anything near the head) lets younger
        // writebacks exhaust the file while the head still waits —
        // the classic virtual-physical deadlock. Without VP the
        // writeback never reads the privilege, so it is not scanned.
        const bool privileged = !rn.policy().virtualPhysical ||
            (robHead <= idx
                 ? !anyUnretiredInRange(robHead, idx)
                 : !anyUnretiredInRange(robHead, cfg.robSize) &&
                     !anyUnretiredInRange(0, idx));
        if (!rn.writeback(c.dst, e.dstPreg, c.dstGen,
                          c.wi.resultValue, privileged)) {
            scheduleEvent(cycle + 2, EventType::Retire, idx);
            return;
        }
        noteFaultAccess(faults::FaultSite::PrfValue);
        c.wbValue = readThroughValue(e.dstCls, e.dstPreg, c.dstGen,
                                     c.wi.resultValue);
    }
    c.retired = true;
    unretiredBits[idx / 64] &= ~(uint64_t{1} << (idx % 64));
}

// ---------------------------------------------------------------
// Branch resolution and squash
// ---------------------------------------------------------------

void
OutOfOrderCore::releaseCkptRef(CkptRef &ref)
{
    PRI_ASSERT(ref.valid());
    ckptPool.release(ref);
    ref = CkptRef{};
    // Trim the undo journals to the oldest checkpoint still live:
    // nothing can ever unwind below it again. When the oldest branch
    // has not renamed yet its archSeq is unassigned — but then (by
    // in-order rename) *no* live checkpoint has one, so the whole
    // arch journal is dead and can be trimmed to the present.
    if (ckptPool.empty()) {
        ras.trimJournal(ras.journalSeq());
        archJournal.trimTo(archJournal.seq());
    } else {
        const CheckpointSlot &o = ckptPool.oldest();
        ras.trimJournal(o.bp.rasSeq);
        archJournal.trimTo(o.archSeq == CheckpointSlot::kUnrenamed
                               ? archJournal.seq()
                               : o.archSeq);
    }
}

void
OutOfOrderCore::flushFetchBuffer()
{
    const uint32_t cap = static_cast<uint32_t>(fetchBuf.size());
    for (uint32_t i = 0; i < fetchCount; ++i) {
        FetchedInst &f = fetchBuf[(fetchHead + i) % cap];
        if (f.ckptRef.valid())
            releaseCkptRef(f.ckptRef);
    }
    fetchHead = 0;
    fetchCount = 0;
}

void
OutOfOrderCore::restoreWalker(const workload::WalkerCkpt &ckpt)
{
    if (cfg.injectFault == InjectedFault::StaleWalkerGidx) {
        // Planted bug (checker validation): "forget" to restore the
        // dynamic-index counter, as a refactor that drops gidx from
        // the checkpoint would. Every random draw after the first
        // recovery shifts, silently.
        workload::WalkerCkpt corrupt = ckpt;
        corrupt.gidx += 1;
        walker.restore(corrupt);
        return;
    }
    walker.restore(ckpt);
}

void
OutOfOrderCore::steerResolvedBranch(const RobCold &c)
{
    const auto &wi = c.wi;
    if (cfg.injectFault == InjectedFault::CommitWrongPath) {
        // Planted bug (checker validation): re-steer down the
        // *predicted* direction, so the machine commits the wrong
        // path while staying perfectly self-consistent.
        walker.steer(wi, c.predTaken,
                     c.predTaken ? c.predTarget : wi.fallThrough);
        return;
    }
    walker.steer(wi, wi.taken, wi.actualTarget);
}

void
OutOfOrderCore::resolveBranch(uint32_t idx)
{
    RobCold &e = robCold[idx];
    const auto &wi = e.wi;
    const bool dir_wrong = e.predTaken != wi.taken;
    const bool target_wrong = !dir_wrong && wi.taken &&
        e.predTarget != wi.actualTarget;
    if (!dir_wrong && !target_wrong) {
        // Correctly predicted: the shadow map can never be restored
        // again, so PRI's checkpoint references retire now.
        rn.resolveCheckpoint(e.ckptId);
        e.ckptResolved = true;
        releaseCkptRef(e.ckptRef);
        return;
    }

    e.resolvedMispredict = true;
    ++st.branchMispredicts;
    if (target_wrong)
        ++st.targetMispredicts;
    ++st.ckptsRestored;

    squashAfter(idx);

    CheckpointSlot &slot = ckptPool.get(e.ckptRef);

    // Walker back onto the correct path.
    restoreWalker(slot.walker);
    steerResolvedBranch(e);

    // Predictor state repair.
    uint64_t h = slot.bp.history;
    if (e.usedPredictor)
        h = (h << 1) | (wi.taken ? 1 : 0);
    predictor.setHistory(h);
    ras.restore(slot.bp);
    if (wi.isCall)
        ras.push(wi.fallThrough);
    else if (wi.isReturn)
        ras.pop();

    // Speculative architectural values: unwind the journal to this
    // branch's rename point (a resolving branch has renamed, so
    // archSeq is assigned).
    PRI_ASSERT(slot.archSeq != CheckpointSlot::kUnrenamed,
               "resolving branch never renamed");
    archJournal.unwindTo(slot.archSeq, [this](const ArchUndo &u) {
        specArch[u.flat] = u.value;
    });

    flushFetchBuffer();
    fetchResumeCycle = cycle + cfg.redirectPenalty;

    // The restored checkpoint has served its purpose; no older
    // branch will ever restore it.
    rn.resolveCheckpoint(e.ckptId);
    e.ckptResolved = true;
    releaseCkptRef(e.ckptRef);
}

void
OutOfOrderCore::squashAfter(uint32_t branch_idx)
{
    const uint32_t stop = (branch_idx + 1) % cfg.robSize;
    std::vector<Freed> &to_free = freedScratch;
    to_free.clear();

    const uint32_t count_before = robCount;
    while (robTail != stop) {
        const uint32_t last =
            (robTail + cfg.robSize - 1) % cfg.robSize;
        RobHot &y = robHot[last];
        RobCold &yc = robCold[last];
        PRI_ASSERT(y.valid);
        // Eager unwind of the wakeup index (no journal): drop
        // consumer-list links, the ready-list node, any pending
        // timed wakeup and any pending event before the entry dies.
        for (unsigned i = 0; i < 2; ++i) {
            const auto &s = y.src[i];
            if (s.valid && !s.imm && s.refHeld)
                consUnlink(last, i);
        }
        if (y.inReadyList)
            readyRemove(last);
        if (wakes_.pending(last))
            wakes_.unlink(last);
        if (events_.pending(last))
            events_.unlink(last);
        if (y.inScheduler) {
            y.inScheduler = false;
            --schedCount_;
        }
        for (auto &s : y.src)
            rn.consumerSquashed(s);
        if (y.isBranch) {
            rn.discardCheckpoint(yc.ckptId);
            // A squashed branch that already resolved gave its slot
            // back then; only live refs are released here.
            if (yc.ckptRef.valid())
                releaseCkptRef(yc.ckptRef);
        }
        if (y.hasDst) {
            if (to_free.size() == to_free.capacity())
                ++st.scratchGrowths;
            to_free.push_back(
                Freed{y.dstCls, y.dstPreg, yc.dstGen});
        }
        if (y.heldSlot) {
            y.heldSlot = false;
            --schedHeld;
        }
        y.valid = false;
        unretiredBits[last / 64] &= ~(uint64_t{1} << (last % 64));
        robTail = last;
        --robCount;
        ++st.squashedInsts;
    }

    lsq.squashYounger(robCold[branch_idx].wi.seq);
    // arg = entries this recovery squashed.
    flight->record(FlightEvent::Squash, cycle,
                   robCold[branch_idx].wi.pc,
                   robCold[branch_idx].wi.seq,
                   count_before - robCount);

    rn.restoreCheckpoint(robCold[branch_idx].ckptId);
    for (const Freed &f : to_free)
        rn.squashDest(f.cls, f.preg, f.gen);
}

// ---------------------------------------------------------------
// Commit
// ---------------------------------------------------------------

void
OutOfOrderCore::commitStage()
{
    for (unsigned w = 0; w < cfg.width; ++w) {
        if (robCount == 0)
            return;
        RobHot &e = robHot[robHead];
        RobCold &c = robCold[robHead];
        if (!e.valid || !c.retired)
            return;

        uint64_t commit_value = 0;
        if (e.hasDst) {
            // Fresh read-through: a register corrupted between
            // writeback and commit diverges here.
            commit_value = readThroughValue(e.dstCls, e.dstPreg,
                                            c.dstGen, c.wbValue);
            // PortOverGrant consequence: the over-granted read
            // returned garbage (see portRequest).
            if (c.portCorrupted)
                commit_value ^= 0xdeadbeefULL;
        }
        // Architectural signature: unconditional (observer or not)
        // so a corrupted committed value is visible even with the
        // golden checker off.
        archSig_ = hashCombine(archSig_, c.wi.pc, commit_value);

        if (observer) {
            CommitRecord rec;
            rec.seq = c.wi.seq;
            rec.pc = c.wi.pc;
            rec.op = e.cls;
            rec.dst = c.dst;
            rec.value = commit_value;
            rec.memAddr = isa::isMem(e.cls) ? c.wi.memAddr : 0;
            rec.taken = e.isBranch && c.wi.taken;
            rec.target = rec.taken ? c.wi.actualTarget : 0;
            observer->onCommit(rec);
        }

        if (c.wi.isStore())
            mem.dataAccess(c.wi.memAddr, true);
        if (c.hasLsq)
            lsq.commitHead(c.wi.seq);
        if (e.hasDst)
            rn.commitDest(e.dstCls, c.prevMap, c.prevGen);
        if (e.isBranch) {
            if (c.usedPredictor)
                predictor.update(c.wi.pc, c.wi.taken, c.bpTok);
            if (c.wi.taken && !c.wi.isReturn)
                btb.update(c.wi.pc, c.wi.actualTarget);
            PRI_ASSERT(c.ckptResolved,
                       "branch committed before it resolved");
            rn.releaseCheckpoint(c.ckptId);
            ++st.committedBranches;
        }

        flight->record(FlightEvent::Commit, cycle, c.wi.pc,
                       c.wi.seq, e.hasDst ? e.dstPreg : ~0u);
        e.valid = false;
        robHead = (robHead + 1) % cfg.robSize;
        --robCount;
        ++nCommitted;
        lastCommitCycle = cycle;
        ++st.committedInsts;
    }
}

// ---------------------------------------------------------------
// Select (issue)
// ---------------------------------------------------------------

bool
OutOfOrderCore::portRequest(uint32_t idx)
{
    RobHot &e = robHot[idx];
    unsigned need = 0, inlined = 0;
    for (const auto &s : e.src) {
        if (!s.valid)
            continue;
        s.imm ? ++inlined : ++need;
    }
    const bool denied_before = portArb_.deniedThisCycle();
    if (!portArb_.request(need)) {
        if (cfg.injectFault == InjectedFault::PortOverGrant &&
            e.hasDst && !portFaultFiredThisCycle_) {
            // Planted arbiter bug (checker validation): grant the
            // denied request anyway — one issue too many past the
            // budget, the classic off-by-one in a grant counter.
            // The over-granted op would have read through bitlines
            // the array doesn't have, so its dest value is marked
            // corrupted; commitStage surfaces the stale read in the
            // observed commit stream while the machine itself stays
            // self-consistent (same silent-without-checker pattern
            // as CommitWrongPath). Once per cycle.
            portFaultFiredThisCycle_ = true;
            portArb_.overGrant(need);
            robCold[idx].portCorrupted = true;
        } else {
            if (!denied_before)
                ++*stPortStallCycles;
            ++*stPortStallOps;
            return false;
        }
    }
    *stPortReads += need;
    *stPortInlineBypass += inlined;
    return true;
}

void
OutOfOrderCore::selectStage()
{
    // Planted scheduler wedge (watchdog validation only): stop
    // issuing forever once the trigger commit count is reached. The
    // in-flight window drains and the machine freezes solid.
    if (cfg.injectFault == InjectedFault::WedgeScheduler &&
        nCommitted >= kWedgeAfterCommits) {
        return;
    }

    // Read-port arbitration: the full budget becomes available each
    // cycle; no carry-over, no reservation (port_arbiter.hh).
    if (cfg.prfReadPorts != 0) {
        portArb_.beginCycle();
        portFaultFiredThisCycle_ = false;
    }

    // Timed wakeups land before select so entries predicted ready
    // this cycle are eligible this cycle.
    drainWakeups();
    wk.readyOccAccum += readyCount_;
    if (readyCount_ == 0)
        return;

    std::array<unsigned, 5> fu = {cfg.numIntAlu, cfg.numIntMultDiv,
                                  cfg.numFpAlu, cfg.numFpMultDiv,
                                  cfg.numMemPorts};
    unsigned issued = 0;

    // Oldest-first over the ready bitmap: walking the ROB ring from
    // robHead visits slots in rename (seq) order, so age priority
    // falls out of the word scan with no sorted structure to
    // maintain. The head word is visited twice -- once for the bits
    // at/above robHead (oldest entries), once at the end for the
    // wrapped bits below it. The set is a superset of the ready
    // entries (lazy removal), so the exact readiness predicate is
    // re-applied per entry; entries whose predicted readiness
    // regressed are skipped in place.
    const size_t words = readyBits_.size();
    const size_t hw = robHead / 64;
    const unsigned hb = robHead % 64;
    for (size_t wi = 0; wi <= words && issued < cfg.width; ++wi) {
        const size_t w = (hw + wi) % words;
        uint64_t bits = readyBits_[w];
        if (wi == 0)
            bits &= ~uint64_t{0} << hb;
        else if (wi == words)
            bits = hb ? bits & (~uint64_t{0} >> (64 - hb)) : 0;
        while (bits != 0 && issued < cfg.width) {
            const uint32_t idx = static_cast<uint32_t>(
                w * 64 + std::countr_zero(bits));
            bits &= bits - 1;
            RobHot &e = robHot[idx];
            ++wk.selectScans;

            if (e.readyForSelect > cycle || !srcSpecReady(e.src[0]) ||
                !srcSpecReady(e.src[1])) {
                scanDefer(idx);
                continue;
            }
            const unsigned k = fuIndex(e.cls);
            if (fu[k] == 0)
                continue;
            // Port denial leaves the ready bit set: the entry is
            // genuinely ready, just structurally starved, and retries
            // from the same age position next cycle (no scanDefer —
            // its prediction is fine).
            if (cfg.prfReadPorts != 0 && !portRequest(idx))
                continue;
            fu[k] -= 1;
            ++issued;

            readyRemove(idx);
            e.inScheduler = false;
            --schedCount_;
            e.heldSlot = true;
            ++schedHeld;
            if (e.hasDst) {
                const unsigned pred_lat = isa::isLoad(e.cls)
                    ? 1 + cfg.mem.dl1.latency
                    : isa::execLatency(e.cls);
                specAvail(e.dstCls, e.dstPreg) =
                    cycle + cfg.selectToExe + pred_lat;
                // Wake the dest's consumers. Predicted readiness is
                // at least one cycle out (every latency >= 1), so
                // near-wake parking may set a ready bit mid-scan, but
                // the parked entry's predicate fails until its cycle
                // arrives -- visiting or missing it this cycle issues
                // nothing either way.
                broadcastAvail(e.dstCls, e.dstPreg);
            }
            scheduleEvent(cycle + cfg.selectToExe, EventType::ExeStart,
                          idx);
            ++st.issuedInsts;
            flight->record(FlightEvent::Issue, cycle,
                           robCold[idx].wi.pc, e.seq,
                           e.hasDst ? e.dstPreg : ~0u);
        }
    }
}

// ---------------------------------------------------------------
// Rename / dispatch
// ---------------------------------------------------------------

void
OutOfOrderCore::renameStage()
{
    const uint32_t fq_cap = static_cast<uint32_t>(fetchBuf.size());
    for (unsigned w = 0; w < cfg.width; ++w) {
        if (fetchCount == 0)
            return;
        FetchedInst &f = fetchBuf[fetchHead];
        if (f.readyAt > cycle)
            return;

        const auto &wi = f.wi;
        if (robCount == cfg.robSize) {
            ++st.stallRobFull;
            return;
        }
        if (schedCount_ + schedHeld >= cfg.schedSize) {
            ++st.stallSchedFull;
            return;
        }
        if (isa::isMem(wi.cls) && lsq.full()) {
            ++st.stallLsqFull;
            return;
        }
        if (wi.hasDst() && !rn.canRename(wi.dst.cls)) {
            ++(wi.dst.cls == isa::RegClass::Int
                   ? st.stallNoPregInt : st.stallNoPregFp);
            return;
        }

        const uint32_t idx = robTail;
        RobHot &e = robHot[idx];
        RobCold &c = robCold[idx];
        PRI_ASSERT(!e.valid, "renaming into a live ROB slot");
        e = RobHot{};
        e.valid = true;
        e.seq = wi.seq;
        e.cls = wi.cls;
        e.readyForSelect = cycle + cfg.renameToSelect;

        c = RobCold{};
        c.wi = wi;
        c.fetchCycle = f.fetchCycle;
        c.renameCycle = cycle;

        // Source operands through the map (payload RAM fill).
        const isa::RegId srcs[2] = {wi.src1, wi.src2};
        for (int i = 0; i < 2; ++i) {
            if (!srcs[i].valid())
                continue;
            e.src[i] = rn.readSrc(srcs[i]);
            PRI_ASSERT(e.src[i].value == specArch[srcs[i].flat()],
                       "renamed operand value diverges from "
                       "architectural dataflow");
        }

        // Destination allocation.
        if (wi.hasDst()) {
            e.hasDst = true;
            c.dst = wi.dst;
            e.dstCls = wi.dst.cls;
            auto dr = rn.renameDest(wi.dst, wi.resultValue);
            noteFaultAccess(faults::FaultSite::MapTable);
            noteFaultAccess(faults::FaultSite::FreeList);
            e.dstPreg = dr.preg;
            c.dstGen = dr.gen;
            c.prevMap = dr.prev;
            c.prevGen = dr.prevGen;
            specAvail(wi.dst.cls, dr.preg) = kNever;
            actualAvail(wi.dst.cls, dr.preg) = kNever;
            // Journal the old value unless no live checkpoint could
            // ever unwind to before this write (pool empty: any
            // younger branch records a position at or after it).
            if (!ckptPool.empty()) {
                archJournal.push(ArchUndo{
                    specArch[wi.dst.flat()],
                    static_cast<uint16_t>(wi.dst.flat())});
            }
            specArch[wi.dst.flat()] = wi.resultValue;
        }

        if (isa::isMem(wi.cls)) {
            lsq.insert(wi.seq, wi.memAddr, wi.isStore());
            if (wi.isStore())
                noteFaultAccess(faults::FaultSite::LsqForward);
            c.hasLsq = true;
        }

        if (wi.isBranch()) {
            e.isBranch = true;
            c.predTaken = f.predTaken;
            c.predTarget = f.predTarget;
            c.usedPredictor = f.usedPredictor;
            c.bpTok = f.bpTok;
            // The branch's recovery point includes its own dest write
            // (the journal position is taken after the dest block).
            c.ckptRef = f.ckptRef;
            f.ckptRef = CkptRef{};
            ckptPool.get(c.ckptRef).archSeq = archJournal.seq();
            c.ckptId = rn.createCheckpoint();
            noteFaultAccess(faults::FaultSite::CkptNode);
        }

        e.inScheduler = true;
        ++schedCount_;
        // Thread each pointer source onto its producer's consumer
        // list, then arm the entry's first wakeup: a timed one if
        // every source has a predicted time, else the unscheduled
        // producer's broadcast re-verifies.
        for (unsigned i = 0; i < 2; ++i) {
            if (e.src[i].valid && !e.src[i].imm)
                consLink(idx, i);
        }
        wakeVerify(idx);
        unretiredBits[idx / 64] |= uint64_t{1} << (idx % 64);
        robTail = (robTail + 1) % cfg.robSize;
        ++robCount;
        fetchHead = (fetchHead + 1) % fq_cap;
        --fetchCount;
        ++st.renamedInsts;
        flight->record(FlightEvent::Rename, cycle, wi.pc, wi.seq,
                       e.hasDst ? e.dstPreg : ~0u);
    }
}

// ---------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------

void
OutOfOrderCore::fetchStage()
{
    if (cycle < fetchResumeCycle) {
        ++st.fetchStallCycles;
        return;
    }
    const uint32_t fq_cap = static_cast<uint32_t>(fetchBuf.size());
    if (fetchCount >= fq_cap)
        return;

    // One I-cache access per cycle for the current fetch group.
    const uint64_t fetch_pc = walker.currentPc();
    const unsigned ilat = mem.instAccess(fetch_pc);
    if (ilat > cfg.mem.il1.latency) {
        fetchResumeCycle = cycle + (ilat - cfg.mem.il1.latency);
        ++st.icacheMissStalls;
        return;
    }

    for (unsigned w = 0; w < cfg.width; ++w) {
        if (fetchCount >= fq_cap)
            return;

        workload::WInst wi = walker.next();
        FetchedInst &f =
            fetchBuf[(fetchHead + fetchCount) % fq_cap];
        f.fetchCycle = cycle;
        f.readyAt = cycle + cfg.fetchToRename;
        f.isBranch = false;
        f.usedPredictor = false;
        PRI_ASSERT(!f.ckptRef.valid(),
                   "fetch slot reused with a live checkpoint");

        if (wi.isBranch()) {
            f.isBranch = true;
            ++st.ckptsTaken;

            // Snapshot recovery state before speculative updates.
            f.ckptRef = ckptPool.allocate();
            CheckpointSlot &slot = ckptPool.get(f.ckptRef);
            slot.bp.history = predictor.history();
            ras.snapshot(slot.bp);

            bool pred_taken = true;
            if (!wi.isUncond) {
                f.bpTok = predictor.predict(wi.pc);
                f.usedPredictor = true;
                pred_taken = f.bpTok.predTaken;
            }

            uint64_t pred_target;
            if (wi.isReturn) {
                pred_target = ras.pop();
            } else {
                pred_target = wi.actualTarget;
                if (wi.isCall)
                    ras.push(wi.fallThrough);
                if (pred_taken && !btb.lookup(wi.pc)) {
                    // Predicted taken but no target in the BTB:
                    // short fetch bubble while decode computes it.
                    fetchResumeCycle =
                        cycle + 1 + cfg.btbMissPenalty;
                    ++st.btbMisses;
                }
            }
            f.predTaken = pred_taken;
            f.predTarget = pred_target;
            walker.checkpointInto(slot.walker);

            // Steer the walker down the *fetched* direction. A
            // wrong direction walks the real wrong path; a wrong
            // return target (RAS stale) is steered down the actual
            // path and charged the full penalty at resolve.
            walker.steer(wi, pred_taken, wi.actualTarget);

            f.wi = wi;
            ++fetchCount;
            ++st.fetchedInsts;
            flight->record(FlightEvent::Fetch, cycle, wi.pc, wi.seq,
                           pred_taken ? 1 : 0);
            if (pred_taken) {
                // Fetch stops at the first taken branch in a cycle.
                return;
            }
            continue;
        }

        f.wi = wi;
        ++fetchCount;
        ++st.fetchedInsts;
        flight->record(FlightEvent::Fetch, cycle, wi.pc, wi.seq, 0);
    }
}

void
OutOfOrderCore::checkInvariants() const
{
    rn.checkInvariants();
    PRI_ASSERT(robCount <= cfg.robSize);
    PRI_ASSERT(schedCount_ + schedHeld <= cfg.schedSize);
    PRI_ASSERT(fetchCount <= fetchBuf.size());
    // One pass over the ROB slots: counts, both bitmaps against the
    // flags, held consumer references and pooled checkpoint refs.
    // The ready bitmap needs no order audit: the select scan walks
    // the ROB ring from robHead, so seq order is structural.
    unsigned valid = 0, waiting = 0, nready = 0, held = 0, refs = 0;
    for (uint32_t i = 0; i < cfg.robSize; ++i) {
        const RobHot &e = robHot[i];
        const bool unretired = (unretiredBits[i / 64] >> (i % 64)) & 1;
        const bool ready = (readyBits_[i / 64] >> (i % 64)) & 1;
        PRI_ASSERT(ready == e.inReadyList, "ready bitmap out of sync");
        if (!e.valid) {
            PRI_ASSERT(!unretired, "unretired bitmap out of sync");
            PRI_ASSERT(!ready, "dead entry in the ready bitmap");
            continue;
        }
        const RobCold &c = robCold[i];
        PRI_ASSERT(unretired == !c.retired,
                   "unretired bitmap out of sync");
        PRI_ASSERT(!ready || e.inScheduler,
                   "dead entry in the ready bitmap");
        ++valid;
        waiting += e.inScheduler ? 1 : 0;
        nready += ready ? 1 : 0;
        for (const auto &s : e.src)
            held += (s.valid && !s.imm && s.refHeld) ? 1 : 0;
        refs += c.ckptRef.valid() ? 1 : 0;
    }
    PRI_ASSERT(valid == robCount, "ROB count mismatch");
    PRI_ASSERT(waiting == schedCount_, "scheduler count mismatch");
    PRI_ASSERT(nready == readyCount_, "ready count mismatch");
    // Consumer lists: the linked nodes are exactly the live pointer
    // reads (valid && !imm && refHeld) of live entries, each on the
    // list of the register it names.
    unsigned linked = 0;
    for (unsigned cls = 0; cls < 2; ++cls) {
        for (size_t p = 0; p < consHead_[cls].size(); ++p) {
            for (int32_t n = consHead_[cls][p]; n != -1;
                 n = cons_[n].next) {
                const uint32_t idx = static_cast<uint32_t>(n) >> 1;
                const auto &s = robHot[idx].src[n & 1];
                PRI_ASSERT(robHot[idx].valid && s.valid && !s.imm &&
                               s.refHeld &&
                               static_cast<unsigned>(s.cls) == cls &&
                               s.preg == p,
                           "consumer list out of sync");
                ++linked;
            }
        }
    }
    PRI_ASSERT(linked == held, "consumer membership leak");
    // Timing wheels: each pending entry linked exactly once, in its
    // own bucket; wakeups only for waiting, not-yet-ready entries,
    // events only for live ones.
    wakes_.audit([&](uint32_t n) {
        PRI_ASSERT(robHot[n].inScheduler && !robHot[n].inReadyList,
                   "wakeup for a non-waiting entry");
    });
    events_.audit([&](uint32_t n) {
        PRI_ASSERT(robHot[n].valid, "event for a dead ROB slot");
    });
    // Every live pool slot is owned by exactly one in-flight
    // reference (fetch ring or ROB).
    const uint32_t cap = static_cast<uint32_t>(fetchBuf.size());
    for (uint32_t i = 0; i < fetchCount; ++i) {
        if (fetchBuf[(fetchHead + i) % cap].ckptRef.valid())
            ++refs;
    }
    PRI_ASSERT(refs == ckptPool.liveSlots(),
               "checkpoint pool leak or double ownership");
}

} // namespace pri::core
