#include "rename_unit.hh"

#include <algorithm>
#include <bit>

#include "common/bitutils.hh"
#include "common/hashing.hh"
#include "common/logging.hh"

namespace pri::rename
{

RenameStats::RenameStats(StatGroup &sg)
    : cycles(sg.scalar("rename.cycles")),
      occupancyIntAccum(sg.scalar("rename.occupancyIntAccum")),
      occupancyFpAccum(sg.scalar("rename.occupancyFpAccum")),
      srcImmReads(sg.scalar("rename.srcImmReads")),
      srcPregReads(sg.scalar("rename.srcPregReads")),
      destAllocs(sg.scalar("rename.destAllocs")),
      checkpointsCreated(sg.scalar("rename.checkpointsCreated")),
      checkpointsSquashed(sg.scalar("rename.checkpointsSquashed")),
      checkpointsRestored(sg.scalar("rename.checkpointsRestored")),
      narrowResultsInt(sg.scalar("pri.narrowResultsInt")),
      narrowResultsFp(sg.scalar("pri.narrowResultsFp")),
      inlinedCurrentMap(sg.scalar("pri.inlinedCurrentMap")),
      narrowButRemapped(sg.scalar("pri.narrowButRemapped")),
      lazyCkptUpdates(sg.scalar("pri.lazyCkptUpdates")),
      idealPayloadRewrites(sg.scalar("pri.idealPayloadRewrites")),
      vpWritebackStalls(sg.scalar("vp.writebackStalls")),
      vpEmergencyClaims(sg.scalar("vp.emergencyClaims")),
      vpStorageClaims(sg.scalar("vp.storageClaims")),
      commitPrevWasImm(sg.scalar("rename.commitPrevWasImm")),
      duplicateCommitFrees(sg.scalar("rename.duplicateCommitFrees")),
      squashDuplicateFrees(sg.scalar("rename.squashDuplicateFrees")),
      priEarlyFrees(sg.scalar("pri.earlyFrees")),
      erEarlyFrees(sg.scalar("er.earlyFrees")),
      frees(sg.scalar("rename.frees")),
      lifeAllocToWrite(sg.average("lifetime.allocToWrite")),
      lifeWriteToLastRead(sg.average("lifetime.writeToLastRead")),
      lifeLastReadToRelease(sg.average("lifetime.lastReadToRelease")),
      lifeTotal(sg.average("lifetime.total"))
{
}

RenameUnit::RenameUnit(const RenameConfig &config, StatGroup &sg)
    : cfg(config), policy_(config.policy()), stats(sg),
      intState(config.renameTagSpace(), isa::kNumLogicalRegs),
      fpState(config.renameTagSpace(), isa::kNumLogicalRegs)
{
    PRI_ASSERT(cfg.numPhysRegs > isa::kNumLogicalRegs,
               "need more physical than architected registers");
    PRI_ASSERT(!policy_.virtualPhysical ||
                   cfg.numPhysRegs > isa::kNumLogicalRegs + kVpReserve,
               "VP storage budget too small");
    // Architected registers start allocated, complete, mapped, and
    // holding physical storage.
    for (auto *st : {&intState, &fpState}) {
        for (unsigned i = 0; i < isa::kNumLogicalRegs; ++i) {
            auto &info = st->pregs[i];
            info.complete = true;
            info.holdsStorage = true;
            st->setMappedBy(static_cast<isa::PhysRegId>(i),
                            static_cast<int16_t>(i));
        }
        st->storageUsed = isa::kNumLogicalRegs;
    }
    // Flat mappedBy uses the per-class logical index (0..31); class
    // is implicit in which ClassState the preg lives in.
}

void
RenameUnit::setIdealInlineHook(IdealInlineHook hook)
{
    idealHook = std::move(hook);
}

RenameUnit::ClassState &
RenameUnit::state(isa::RegClass cls)
{
    return cls == isa::RegClass::Int ? intState : fpState;
}

const RenameUnit::ClassState &
RenameUnit::state(isa::RegClass cls) const
{
    return cls == isa::RegClass::Int ? intState : fpState;
}

void
RenameUnit::ClassState::setMappedBy(isa::PhysRegId p, int16_t logical)
{
    pregs[p].mappedBy = logical;
    const uint64_t bit = uint64_t{1} << (p % 64);
    if (logical < 0 && freeList.isAllocated(p))
        unmapped[p / 64] |= bit;
    else
        unmapped[p / 64] &= ~bit;
}

bool
RenameUnit::useCkptRefs() const
{
    return policy_.earlyRelease ||
        (policy_.pri && !policy_.lazyCkptUpdate);
}

bool
RenameUnit::isNarrow(isa::RegClass cls, uint64_t value) const
{
    if (cls == isa::RegClass::Int)
        return fitsInSignedBits(value, cfg.narrowBitsInt);
    return fpValueTrivial(value);
}

void
RenameUnit::beginCycle(uint64_t cycle)
{
    now = cycle;
    ++stats.cycles;
    stats.occupancyIntAccum +=
        policy_.virtualPhysical ? intState.storageUsed
                                : intState.freeList.numAllocated();
    stats.occupancyFpAccum +=
        policy_.virtualPhysical ? fpState.storageUsed
                                : fpState.freeList.numAllocated();
}

bool
RenameUnit::canRename(isa::RegClass cls) const
{
    return state(cls).freeList.hasFree();
}

SrcRead
RenameUnit::readSrc(isa::RegId src)
{
    PRI_ASSERT(src.valid());
    auto &st = state(src.cls);
    const MapEntry &e = st.map.read(src.idx);

    SrcRead r;
    r.valid = true;
    r.cls = src.cls;
    if (e.imm) {
        r.imm = true;
        r.value = e.value;
        ++stats.srcImmReads;
        return r;
    }
    r.preg = e.preg;
    auto &info = st.pregs[e.preg];
    r.value = info.value;
    info.consumerRefs += 1;
    r.refHeld = true;
    ++stats.srcPregReads;
    return r;
}

RenameUnit::DestRename
RenameUnit::renameDest(isa::RegId dst, uint64_t future_value)
{
    PRI_ASSERT(dst.valid());
    auto &st = state(dst.cls);
    PRI_ASSERT(st.freeList.hasFree(), "rename without free register");

    DestRename out;
    out.prev = st.map.read(dst.idx);
    if (!out.prev.imm) {
        auto &prev_info = st.pregs[out.prev.preg];
        out.prevGen = prev_info.gen;
        PRI_ASSERT(prev_info.mappedBy ==
                   static_cast<int16_t>(dst.idx));
        // The ER "unmap" event: the old register is no longer the
        // current mapping. Record the checkpoint horizon it must
        // outlive before ER may free it.
        st.setMappedBy(out.prev.preg, -1);
        prev_info.erUnmapWatermark = nextCkptId - 1;
    }

    const isa::PhysRegId p = st.freeList.allocate();
    auto &info = st.pregs[p];
    if (!policy_.virtualPhysical) {
        // Conventional allocation claims physical storage up front;
        // VP claims only at writeback, when the value exists.
        info.holdsStorage = true;
        st.storageUsed += 1;
    }
    info.value = future_value;
    info.gen += 1;
    info.consumerRefs = 0;
    info.complete = false;
    info.pendingNarrowFree = false;
    info.pendingCommitFree = false;
    st.setMappedBy(p, static_cast<int16_t>(dst.idx));
    info.allocCycle = now;
    info.writeCycle = 0;
    info.lastReadCycle = 0;
    info.everRead = false;
    PRI_ASSERT(st.ckptRefs[p] == 0);

    out.preg = p;
    out.gen = info.gen;
    st.map.write(dst.idx, MapEntry::makePreg(p));
    ++stats.destAllocs;

    // The unmapped previous register may now satisfy ER conditions.
    if (!out.prev.imm)
        tryFree(dst.cls, out.prev.preg);
    return out;
}

RenameUnit::Checkpoint &
RenameUnit::liveCkpt(size_t k)
{
    const size_t i = ckptHead + k;
    return ckptRing[i < ckptRing.size() ? i : i - ckptRing.size()];
}

CkptId
RenameUnit::createCheckpoint()
{
    if (ckptCount == ckptRing.size()) {
        // New high-water mark: unwrap the ring so the live run starts
        // at slot 0, then construct one more slot after it.
        std::rotate(ckptRing.begin(),
                    ckptRing.begin() + static_cast<ptrdiff_t>(ckptHead),
                    ckptRing.end());
        ckptHead = 0;
        ckptRing.emplace_back();
    }
    Checkpoint &c = liveCkpt(ckptCount++);
    c.id = nextCkptId++;
    c.resolved = false;
    c.intMap = intState.map.raw();
    c.fpMap = fpState.map.raw();
    if (useCkptRefs())
        takeCkptRefs(c, +1);
    ++stats.checkpointsCreated;
    return c.id;
}

void
RenameUnit::reserveCheckpoints(unsigned n)
{
    PRI_ASSERT(ckptRing.empty(),
               "reserve before any checkpoints exist");
    ckptRing.reserve(n);
}

void
RenameUnit::takeCkptRefs(const Checkpoint &c, int delta)
{
    // Every entry of the copy, not only those changed since the
    // previous checkpoint: a map or checkpoint strike can rewrite
    // any of them. A count still above zero blocks tryFree, so only
    // a drop to zero (or below, after a strike) can free.
    int *const int_refs = intState.ckptRefs.data();
    int *const fp_refs = fpState.ckptRefs.data();
    for (unsigned i = 0; i < isa::kNumLogicalRegs; ++i) {
        if (!c.intMap[i].imm) {
            const isa::PhysRegId p = c.intMap[i].preg;
            int_refs[p] += delta;
            if (delta < 0 && int_refs[p] <= 0)
                tryFree(isa::RegClass::Int, p);
        }
        if (!c.fpMap[i].imm) {
            const isa::PhysRegId p = c.fpMap[i].preg;
            fp_refs[p] += delta;
            if (delta < 0 && fp_refs[p] <= 0)
                tryFree(isa::RegClass::Fp, p);
        }
    }
}

bool
RenameUnit::erCkptHorizonClear(uint64_t watermark) const
{
    return ckptCount == 0 || ckptRing[ckptHead].id > watermark;
}

void
RenameUnit::sweepErFrees()
{
    // Ascending index, INT before FP: free order decides the next
    // allocation. Only allocated, unmapped registers can pass
    // tryFree, and freeing one clears no other candidate's bit.
    for (auto cls : {isa::RegClass::Int, isa::RegClass::Fp}) {
        const auto &words = state(cls).unmapped;
        for (size_t w = 0; w < words.size(); ++w) {
            for (uint64_t bits = words[w]; bits != 0;
                 bits &= bits - 1) {
                tryFree(cls, static_cast<isa::PhysRegId>(
                                 w * 64 + std::countr_zero(bits)));
            }
        }
    }
}

void
RenameUnit::resolveCheckpoint(CkptId id)
{
    // Squashes leave gaps in the ids, which rise with age: binary
    // search the live run.
    size_t lo = 0;
    size_t hi = ckptCount;
    while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (liveCkpt(mid).id < id)
            lo = mid + 1;
        else
            hi = mid;
    }
    PRI_ASSERT(lo < ckptCount && liveCkpt(lo).id == id,
               "resolve of unknown checkpoint");
    Checkpoint &c = liveCkpt(lo);
    PRI_ASSERT(!c.resolved, "checkpoint resolved twice");
    c.resolved = true;
    if (useCkptRefs())
        takeCkptRefs(c, -1);
}

void
RenameUnit::releaseCheckpoint(CkptId id)
{
    PRI_ASSERT(ckptCount > 0 && liveCkpt(0).id == id,
               "release of a checkpoint that is not the oldest");
    PRI_ASSERT(liveCkpt(0).resolved,
               "checkpoint committed before the branch resolved");
    ckptHead = ckptHead + 1 == ckptRing.size() ? 0 : ckptHead + 1;
    --ckptCount;
    if (policy_.earlyRelease)
        sweepErFrees();
}

void
RenameUnit::discardCheckpoint(CkptId id)
{
    PRI_ASSERT(ckptCount > 0 && liveCkpt(ckptCount - 1).id == id,
               "discard of a checkpoint that is not the youngest");
    // References drop while the checkpoint still holds the ER
    // horizon, as tryFree expects.
    const Checkpoint &c = liveCkpt(ckptCount - 1);
    if (useCkptRefs() && !c.resolved)
        takeCkptRefs(c, -1);
    --ckptCount;
    if (policy_.earlyRelease && ckptCount == 0)
        sweepErFrees();
    ++stats.checkpointsSquashed;
}

void
RenameUnit::restoreCheckpoint(CkptId id)
{
    // Recovery squashed every younger branch first.
    PRI_ASSERT(ckptCount > 0 && liveCkpt(ckptCount - 1).id == id,
               "restore of a checkpoint that is not the youngest");
    const Checkpoint &c = liveCkpt(ckptCount - 1);
    PRI_ASSERT(!c.resolved, "restore of an already-resolved checkpoint");

    for (auto cls : {isa::RegClass::Int, isa::RegClass::Fp}) {
        auto &st = state(cls);
        const auto &snap =
            cls == isa::RegClass::Int ? c.intMap : c.fpMap;

        // Unmap everything the current map names.
        for (unsigned i = 0; i < isa::kNumLogicalRegs; ++i) {
            const MapEntry &cur = st.map.read(i);
            if (!cur.imm)
                st.setMappedBy(cur.preg, -1);
        }
        // Install the checkpointed mappings. A register that was
        // already inlined-and-armed for freeing is restored in
        // immediate mode (its value is complete by definition), so
        // it can never be resurrected as a live mapping.
        for (unsigned i = 0; i < isa::kNumLogicalRegs; ++i) {
            MapEntry e = snap[i];
            if (!e.imm) {
                auto &info = st.pregs[e.preg];
                PRI_ASSERT(st.freeList.isAllocated(e.preg),
                           "checkpoint names a freed register");
                if (info.pendingNarrowFree) {
                    PRI_ASSERT(info.complete);
                    e = MapEntry::makeImm(info.value);
                } else {
                    st.setMappedBy(e.preg, static_cast<int16_t>(i));
                }
            }
            st.map.write(i, e);
        }
        // Registers that fell out of the map may now be freeable.
        for (unsigned i = 0; i < isa::kNumLogicalRegs; ++i) {
            if (!snap[i].imm)
                tryFree(cls, snap[i].preg);
        }
    }
    ++stats.checkpointsRestored;
}

void
RenameUnit::consumerDone(SrcRead &src)
{
    if (!src.valid || src.imm)
        return;
    auto &st = state(src.cls);
    auto &info = st.pregs[src.preg];
    info.lastReadCycle = now;
    info.everRead = true;
    if (src.refHeld) {
        src.refHeld = false;
        PRI_ASSERT(info.consumerRefs > 0);
        info.consumerRefs -= 1;
        tryFree(src.cls, src.preg);
    }
}

void
RenameUnit::consumerSquashed(SrcRead &src)
{
    if (!src.valid || src.imm || !src.refHeld)
        return;
    auto &st = state(src.cls);
    auto &info = st.pregs[src.preg];
    src.refHeld = false;
    PRI_ASSERT(info.consumerRefs > 0);
    info.consumerRefs -= 1;
    tryFree(src.cls, src.preg);
}

bool
RenameUnit::writeback(isa::RegId dst, isa::PhysRegId preg,
                      uint64_t gen, uint64_t value, bool privileged)
{
    PRI_ASSERT(dst.valid());
    auto &st = state(dst.cls);
    auto &info = st.pregs[preg];
    if (policy_.virtualPhysical &&
        (!st.freeList.isAllocated(preg) || info.gen != gen)) {
        // A retried VP writeback whose register was meanwhile freed
        // (e.g. by ER after the unmap): nothing left to store.
        return true;
    }
    PRI_ASSERT(st.freeList.isAllocated(preg) && info.gen == gen,
               "writeback to a register the producer no longer owns");
    PRI_ASSERT(info.value == value,
               "writeback value differs from rename-time value");
    const bool first_attempt = !info.complete;
    info.complete = true;
    if (first_attempt)
        info.writeCycle = now;

    if (first_attempt && policy_.pri && isNarrow(dst.cls, value)) {
        ++(dst.cls == isa::RegClass::Int ? stats.narrowResultsInt
                                      : stats.narrowResultsFp);

        // Figure 7 WAW check on the current map: inline only if the
        // entry still names this register.
        const MapEntry &cur = st.map.read(dst.idx);
        if (!cur.imm && cur.preg == preg) {
            if (!cfg.injectFreeWithoutInline) {
                st.map.write(dst.idx, MapEntry::makeImm(value));
            }
            st.setMappedBy(preg, -1);
            info.erUnmapWatermark = nextCkptId - 1;
            ++stats.inlinedCurrentMap;
        } else {
            ++stats.narrowButRemapped;
        }

        // Lazy scheme: walk every checkpointed copy and apply the
        // same check-and-update (Figure 7 "More checkpoints?" loop).
        if (policy_.lazyCkptUpdate) {
            for (size_t k = 0; k < ckptCount; ++k) {
                Checkpoint &c = liveCkpt(k);
                auto &snap = dst.cls == isa::RegClass::Int
                    ? c.intMap : c.fpMap;
                MapEntry &e = snap[dst.idx];
                if (!e.imm && e.preg == preg) {
                    if (useCkptRefs() && !c.resolved) {
                        PRI_ASSERT(st.ckptRefs[preg] > 0);
                        st.ckptRefs[preg] -= 1;
                    }
                    e = MapEntry::makeImm(value);
                    ++stats.lazyCkptUpdates;
                }
            }
        }

        info.pendingNarrowFree = true;

        if (policy_.priIdeal && info.consumerRefs > 0) {
            // Instant associative payload-RAM update: all in-flight
            // consumers switch to the immediate and drop their
            // references.
            PRI_ASSERT(idealHook,
                       "ideal PRI requires the payload rewrite hook");
            idealHook(dst.cls, preg, value);
            PRI_ASSERT(info.consumerRefs == 0,
                       "ideal payload rewrite left references");
            ++stats.idealPayloadRewrites;
        }
        tryFree(dst.cls, preg);
    } else if (first_attempt) {
        // ER may be able to free immediately if already unmapped.
        tryFree(dst.cls, preg);
    }

    // Virtual-physical storage claim: needed only if the value
    // survived the early-free paths above (an inlined-and-freed
    // value never consumes a physical register at all — the paper's
    // §6 VP+PRI synergy).
    if (policy_.virtualPhysical && st.freeList.isAllocated(preg) &&
        info.gen == gen && !info.holdsStorage) {
        // Non-privileged writebacks stop short of the reserve; the
        // oldest unretired instruction may always claim — even past
        // the nominal budget — as the guaranteed-forward-progress
        // escape valve (cf. the conflict-resolution mechanisms of
        // the virtual-physical register papers). Overshoot is
        // transient and bounded by the commit width.
        const unsigned limit = cfg.numPhysRegs - kVpReserve;
        if (!privileged && st.storageUsed >= limit) {
            ++stats.vpWritebackStalls;
            return false;
        }
        if (st.storageUsed >= cfg.numPhysRegs)
            ++stats.vpEmergencyClaims;
        info.holdsStorage = true;
        st.storageUsed += 1;
        ++stats.vpStorageClaims;
    }
    return true;
}

void
RenameUnit::commitDest(isa::RegClass cls, const MapEntry &prev,
                       uint64_t prev_gen)
{
    if (prev.imm) {
        // The previous mapping was an inlined value: no register to
        // free (it was freed when the value was inlined).
        ++stats.commitPrevWasImm;
        return;
    }
    auto &st = state(cls);
    auto &info = st.pregs[prev.preg];
    if (!st.freeList.isAllocated(prev.preg) || info.gen != prev_gen) {
        // Already freed early (and possibly reallocated): the
        // duplicate deallocation the paper's free list must ignore.
        ++stats.duplicateCommitFrees;
        return;
    }
    info.pendingCommitFree = true;
    tryFree(cls, prev.preg);
    PRI_ASSERT(!st.freeList.isAllocated(prev.preg) ||
                   st.ckptRefs[prev.preg] > 0 ||
                   info.consumerRefs > 0 || info.mappedBy >= 0,
               "commit-time free unexpectedly blocked");
}

void
RenameUnit::squashDest(isa::RegClass cls, isa::PhysRegId preg,
                       uint64_t gen)
{
    auto &st = state(cls);
    auto &info = st.pregs[preg];
    if (!st.freeList.isAllocated(preg) || info.gen != gen) {
        // Freed early before the squash (narrow value inlined).
        ++stats.squashDuplicateFrees;
        return;
    }
    PRI_ASSERT(info.mappedBy < 0,
               "squashed register still mapped after restore");
    PRI_ASSERT(info.consumerRefs == 0,
               "squashed register still has consumers");
    PRI_ASSERT(st.ckptRefs[preg] == 0,
               "squashed register referenced by a live checkpoint");
    doFree(cls, preg, /*squashed=*/true);
}

void
RenameUnit::tryFree(isa::RegClass cls, isa::PhysRegId p)
{
    auto &st = state(cls);
    if (!st.freeList.isAllocated(p))
        return;
    auto &info = st.pregs[p];
    if (info.mappedBy >= 0)
        return;
    if (st.ckptRefs[p] > 0)
        return;
    if (info.consumerRefs > 0)
        return;

    // The published ER scheme needs the unmap flag true in every
    // checkpointed copy; copies live to the commit horizon.
    const bool er_eligible = policy_.earlyRelease && info.complete &&
        erCkptHorizonClear(info.erUnmapWatermark);
    if (!info.pendingNarrowFree && !info.pendingCommitFree &&
        !er_eligible) {
        return;
    }

    if (info.pendingNarrowFree && !info.pendingCommitFree)
        ++stats.priEarlyFrees;
    else if (er_eligible && !info.pendingCommitFree &&
             !info.pendingNarrowFree)
        ++stats.erEarlyFrees;

    doFree(cls, p, /*squashed=*/false);
}

void
RenameUnit::doFree(isa::RegClass cls, isa::PhysRegId p,
                   bool squashed)
{
    auto &st = state(cls);
    auto &info = st.pregs[p];

    if (!squashed && info.complete) {
        // Lifetime phases (paper Figure 1 / Figure 8).
        const double alloc_to_write =
            static_cast<double>(info.writeCycle - info.allocCycle);
        const double write_to_read = info.everRead &&
                info.lastReadCycle > info.writeCycle
            ? static_cast<double>(info.lastReadCycle -
                                  info.writeCycle)
            : 0.0;
        const uint64_t live_end =
            std::max(info.writeCycle,
                     info.everRead ? info.lastReadCycle : 0);
        const double read_to_release =
            now >= live_end ? static_cast<double>(now - live_end)
                            : 0.0;
        stats.lifeAllocToWrite.sample(alloc_to_write);
        stats.lifeWriteToLastRead.sample(write_to_read);
        stats.lifeLastReadToRelease.sample(read_to_release);
        stats.lifeTotal.sample(
            alloc_to_write + write_to_read + read_to_release);
    }

    info.complete = false;
    info.pendingNarrowFree = false;
    info.pendingCommitFree = false;
    info.everRead = false;
    if (info.holdsStorage) {
        PRI_ASSERT(st.storageUsed > 0);
        st.storageUsed -= 1;
        info.holdsStorage = false;
    }
    const bool freed = st.freeList.free(p);
    PRI_ASSERT(freed, "double free must be filtered before doFree");
    st.unmapped[p / 64] &= ~(uint64_t{1} << (p % 64));
    ++stats.frees;
}

const MapEntry &
RenameUnit::mapEntry(isa::RegId reg) const
{
    return state(reg.cls).map.read(reg.idx);
}

uint64_t
RenameUnit::physRegValue(isa::RegClass cls, isa::PhysRegId p) const
{
    return state(cls).pregs.at(p).value;
}

uint64_t
RenameUnit::physRegGen(isa::RegClass cls, isa::PhysRegId p) const
{
    return state(cls).pregs.at(p).gen;
}

unsigned
RenameUnit::occupancy(isa::RegClass cls) const
{
    return state(cls).freeList.numAllocated();
}

unsigned
RenameUnit::storageInUse(isa::RegClass cls) const
{
    return state(cls).storageUsed;
}

bool
RenameUnit::isAllocated(isa::RegClass cls, isa::PhysRegId p) const
{
    return state(cls).freeList.isAllocated(p);
}

int
RenameUnit::consumerRefs(isa::RegClass cls, isa::PhysRegId p) const
{
    return state(cls).pregs.at(p).consumerRefs;
}

int
RenameUnit::ckptRefs(isa::RegClass cls, isa::PhysRegId p) const
{
    return state(cls).ckptRefs.at(p);
}

namespace
{

/**
 * Mutate one map entry (current map or a checkpointed copy). A bit
 * flip lands in the immediate payload when the entry is in inlined
 * mode — PRI's extra exposure — and in the register pointer
 * otherwise; a stale strike latches the neighbouring entry; a zeroed
 * entry is the all-bits-clear encoding (pointer mode, preg 0).
 * Pointer corruption is masked into [0, num_pregs) so every fault
 * lands on representable state; the *consequences* are unconstrained.
 */
MapEntry
mutateMapEntry(const MapEntry &old, const MapEntry &neighbour,
               faults::FaultMutation mutation, uint64_t rnd,
               unsigned num_pregs)
{
    switch (mutation) {
      case faults::FaultMutation::BitFlip: {
        MapEntry e = old;
        if (e.imm)
            e.value ^= uint64_t{1}
                << pri::hashRange(64, rnd, 0x696d6dULL);
        else
            e.preg = static_cast<isa::PhysRegId>(
                (e.preg ^ (1u << pri::hashRange(10, rnd,
                                                0x707467ULL))) %
                num_pregs);
        return e;
      }
      case faults::FaultMutation::StaleValue:
        return neighbour;
      case faults::FaultMutation::ZeroEntry:
        return MapEntry{false, 0, 0};
    }
    return old;
}

} // namespace

bool
RenameUnit::applyFault(const faults::FaultSpec &spec, uint64_t rnd)
{
    using faults::FaultMutation;
    using faults::FaultSite;

    // Seeded class pick with fallback to the other class, so a
    // strike only misses when *neither* class has a live target.
    const isa::RegClass first = (rnd & 1) == 0
        ? isa::RegClass::Int
        : isa::RegClass::Fp;
    const isa::RegClass second = first == isa::RegClass::Int
        ? isa::RegClass::Fp
        : isa::RegClass::Int;

    switch (spec.site) {
      case FaultSite::PrfValue:
        for (auto cls : {first, second}) {
            auto &st = state(cls);
            const unsigned n =
                static_cast<unsigned>(st.pregs.size());
            const unsigned start = static_cast<unsigned>(
                hashRange(n, rnd, 0x707266ULL));
            for (unsigned i = 0; i < n; ++i) {
                const unsigned p = (start + i) % n;
                if (!st.freeList.isAllocated(
                        static_cast<isa::PhysRegId>(p)))
                    continue;
                auto &info = st.pregs[p];
                switch (spec.mutation) {
                  case FaultMutation::BitFlip:
                    info.value ^= uint64_t{1}
                        << hashRange(64, rnd, 0x626974ULL);
                    break;
                  case FaultMutation::StaleValue:
                    // Contents of the adjacent (possibly free) cell:
                    // a genuinely stale value.
                    info.value = st.pregs[(p + 1) % n].value;
                    break;
                  case FaultMutation::ZeroEntry:
                    info.value = 0;
                    break;
                }
                return true;
            }
        }
        return false;

      case FaultSite::MapTable: {
        auto &st = state(first);
        const unsigned l = static_cast<unsigned>(
            hashRange(isa::kNumLogicalRegs, rnd, 0x6d6170ULL));
        const MapEntry mutated = mutateMapEntry(
            st.map.read(l),
            st.map.read((l + 1) % isa::kNumLogicalRegs),
            spec.mutation, rnd,
            static_cast<unsigned>(st.pregs.size()));
        st.map.write(l, mutated);
        return true;
      }

      case FaultSite::FreeList:
        for (auto cls : {first, second}) {
            auto &st = state(cls);
            const size_t n = st.freeList.slotCount();
            if (n == 0)
                continue;
            const size_t slot = static_cast<size_t>(
                hashRange(n, rnd, 0x667265ULL));
            isa::PhysRegId v = st.freeList.slotAt(slot);
            switch (spec.mutation) {
              case FaultMutation::BitFlip:
                v = static_cast<isa::PhysRegId>(
                    (v ^ (1u << hashRange(10, rnd,
                                          0x626974ULL))) %
                    st.pregs.size());
                break;
              case FaultMutation::StaleValue:
                // Another slot's register: a duplicate free-list
                // entry, armed to double-allocate.
                v = st.freeList.slotAt((slot + 1) % n);
                break;
              case FaultMutation::ZeroEntry:
                v = 0;
                break;
            }
            st.freeList.corruptSlot(slot, v);
            return true;
        }
        return false;

      case FaultSite::CkptNode: {
        if (ckptCount == 0)
            return false;
        const size_t k = static_cast<size_t>(
            hashRange(ckptCount, rnd, 0x636b70ULL));
        Checkpoint &c = liveCkpt(k);
        RamMapTable::Table &t = first == isa::RegClass::Int
            ? c.intMap
            : c.fpMap;
        const unsigned l = static_cast<unsigned>(
            hashRange(isa::kNumLogicalRegs, rnd, 0x6d6170ULL));
        t[l] = mutateMapEntry(
            t[l], t[(l + 1) % isa::kNumLogicalRegs], spec.mutation,
            rnd, static_cast<unsigned>(state(first).pregs.size()));
        return true;
      }

      default:
        return false;
    }
}

void
RenameUnit::checkInvariants() const
{
    for (auto cls : {isa::RegClass::Int, isa::RegClass::Fp}) {
        const auto &st = state(cls);
        unsigned mapped = 0;
        for (unsigned i = 0; i < isa::kNumLogicalRegs; ++i) {
            const MapEntry &e = st.map.read(i);
            if (e.imm)
                continue;
            ++mapped;
            PRI_ASSERT(st.freeList.isAllocated(e.preg),
                       "map names a free register");
            PRI_ASSERT(st.pregs[e.preg].mappedBy ==
                           static_cast<int16_t>(i),
                       "mappedBy inconsistent with map");
        }
        unsigned mapped_by = 0, holding = 0;
        for (unsigned p = 0; p < st.pregs.size(); ++p) {
            const auto &info = st.pregs[p];
            PRI_ASSERT(info.consumerRefs >= 0);
            PRI_ASSERT(st.ckptRefs[p] >= 0);
            if (info.mappedBy >= 0)
                ++mapped_by;
            holding += info.holdsStorage ? 1 : 0;
            if (!st.freeList.isAllocated(
                    static_cast<isa::PhysRegId>(p))) {
                PRI_ASSERT(info.mappedBy < 0,
                           "free register is mapped");
                PRI_ASSERT(info.consumerRefs == 0,
                           "free register has consumers");
            }
        }
        PRI_ASSERT(mapped == mapped_by,
                   "map/mappedBy cardinality mismatch");
        PRI_ASSERT(holding == st.storageUsed,
                   "storage accounting mismatch");
        // The privileged (oldest-instruction) escape valve claims
        // past the nominal budget, and those claims accumulate
        // until the overwriting instructions commit — the true
        // ceiling is the in-flight window, not the budget, and
        // mid-run audits observe peaks near 3x the budget on small
        // VP+PRI configurations (under VP+PRI inlined values free
        // the namespace early, admitting far more claimants). Keep
        // a generous margin: a real leak grows linearly with
        // committed instructions and blows through any fixed
        // multiple within a few thousand commits of an audit.
        PRI_ASSERT(!policy_.virtualPhysical ||
                       st.storageUsed <= 4 * cfg.numPhysRegs +
                           isa::kNumLogicalRegs,
                   "VP storage far over budget");
    }
}

} // namespace pri::rename
