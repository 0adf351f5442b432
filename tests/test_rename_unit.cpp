/**
 * @file
 * Unit tests for the register-management policy engine: PRI inlining
 * with the Figure 7 WAW check, WAR avoidance via consumer reference
 * counting and via ideal payload rewrite, checkpoint counting vs
 * lazy checkpoint update, Early Release, squash recovery, and the
 * age-ordered checkpoint ring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "rename/rename_unit.hh"

namespace pri::rename
{

/** gtest prints (and ctest names) a Scheme param by its label. */
void
PrintTo(Scheme scheme, std::ostream *os)
{
    *os << schemeName(scheme);
}

namespace
{

using isa::intReg;
using isa::fpReg;
using isa::RegClass;

constexpr unsigned kPregs = 40; // small file: 8 spare registers

struct Harness
{
    StatGroup stats;
    RenameUnit rn;

    explicit Harness(const RenameConfig &cfg) : rn(cfg, stats)
    {
        rn.beginCycle(0);
    }
};

TEST(RenameUnitBase, RenameReadWriteCommitRoundTrip)
{
    Harness h(RenameConfig::of(Scheme::Base, kPregs, 7));
    auto &rn = h.rn;

    // Producer writes r1 = 5.
    auto d = rn.renameDest(intReg(1), 5);
    EXPECT_NE(d.preg, isa::kInvalidPhysReg);
    EXPECT_FALSE(d.prev.imm);

    // Consumer reads r1 through the map.
    auto s = rn.readSrc(intReg(1));
    EXPECT_FALSE(s.imm);
    EXPECT_EQ(s.preg, d.preg);
    EXPECT_EQ(s.value, 5u);
    EXPECT_EQ(rn.consumerRefs(RegClass::Int, d.preg), 1);

    rn.consumerDone(s);
    EXPECT_EQ(rn.consumerRefs(RegClass::Int, d.preg), 0);

    rn.writeback(intReg(1), d.preg, d.gen, 5);
    // Base scheme: previous register freed only by the redefiner's
    // commit.
    EXPECT_TRUE(rn.isAllocated(RegClass::Int, d.prev.preg));
    rn.commitDest(RegClass::Int, d.prev, d.prevGen);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, d.prev.preg));
    rn.checkInvariants();
}

TEST(RenameUnitBase, StallsWhenFileExhausted)
{
    Harness h(RenameConfig::of(Scheme::Base, kPregs, 7));
    auto &rn = h.rn;
    unsigned allocs = 0;
    while (rn.canRename(RegClass::Int)) {
        rn.renameDest(intReg(allocs % 32), 0);
        ++allocs;
    }
    EXPECT_EQ(allocs, kPregs - 32);
    EXPECT_FALSE(rn.canRename(RegClass::Int));
    EXPECT_TRUE(rn.canRename(RegClass::Fp)); // classes independent
}

TEST(RenameUnitPri, NarrowValueInlinedAndFreed)
{
    Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
    auto &rn = h.rn;

    auto d = rn.renameDest(intReg(2), 42); // 42 fits in 7 bits
    rn.writeback(intReg(2), d.preg, d.gen, 42);

    // Map entry switched to immediate mode, register freed.
    const MapEntry &e = rn.mapEntry(intReg(2));
    EXPECT_TRUE(e.imm);
    EXPECT_EQ(e.value, 42u);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, d.preg));

    // Later consumers read the immediate straight from the map.
    auto s = rn.readSrc(intReg(2));
    EXPECT_TRUE(s.imm);
    EXPECT_EQ(s.value, 42u);

    // The commit-time free of the old mapping must be tolerated as
    // a duplicate after the next writer renames and commits.
    auto d2 = rn.renameDest(intReg(2), 1);
    EXPECT_TRUE(d2.prev.imm); // previous mapping was the immediate
    rn.commitDest(RegClass::Int, d2.prev, d2.prevGen);
    rn.checkInvariants();
}

TEST(RenameUnitPri, WideValueNotInlined)
{
    Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
    auto &rn = h.rn;
    auto d = rn.renameDest(intReg(2), 1000); // needs 11 bits
    rn.writeback(intReg(2), d.preg, d.gen, 1000);
    EXPECT_FALSE(rn.mapEntry(intReg(2)).imm);
    EXPECT_TRUE(rn.isAllocated(RegClass::Int, d.preg));
    rn.checkInvariants();
}

TEST(RenameUnitPri, NarrowBoundaryRespectsConfiguredWidth)
{
    {
        Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
        auto d = h.rn.renameDest(intReg(1), 63);
        h.rn.writeback(intReg(1), d.preg, d.gen, 63);
        EXPECT_TRUE(h.rn.mapEntry(intReg(1)).imm);
        auto d2 = h.rn.renameDest(intReg(2), 64);
        h.rn.writeback(intReg(2), d2.preg, d2.gen, 64);
        EXPECT_FALSE(h.rn.mapEntry(intReg(2)).imm);
    }
    {
        // 8-wide model: 10-bit values inline.
        Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 10));
        auto d = h.rn.renameDest(intReg(1), 511);
        h.rn.writeback(intReg(1), d.preg, d.gen, 511);
        EXPECT_TRUE(h.rn.mapEntry(intReg(1)).imm);
        auto d2 = h.rn.renameDest(intReg(2), 512);
        h.rn.writeback(intReg(2), d2.preg, d2.gen, 512);
        EXPECT_FALSE(h.rn.mapEntry(intReg(2)).imm);
    }
}

TEST(RenameUnitPri, FpInlinesOnlyAllZeroOrAllOnes)
{
    Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
    auto &rn = h.rn;
    auto d0 = rn.renameDest(fpReg(1), 0); // +0.0
    rn.writeback(fpReg(1), d0.preg, d0.gen, 0);
    EXPECT_TRUE(rn.mapEntry(fpReg(1)).imm);

    auto d1 = rn.renameDest(fpReg(2), ~uint64_t{0});
    rn.writeback(fpReg(2), d1.preg, d1.gen, ~uint64_t{0});
    EXPECT_TRUE(rn.mapEntry(fpReg(2)).imm);

    const uint64_t one = 0x3ff0000000000000ULL; // 1.0
    auto d2 = rn.renameDest(fpReg(3), one);
    rn.writeback(fpReg(3), d2.preg, d2.gen, one);
    EXPECT_FALSE(rn.mapEntry(fpReg(3)).imm);
}

TEST(RenameUnitPri, Figure7WawCheckSkipsRemappedEntry)
{
    Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
    auto &rn = h.rn;

    auto p = rn.renameDest(intReg(4), 7);   // producer P
    auto w = rn.renameDest(intReg(4), 900); // next writer W renames
    // P retires with a narrow value, but r4 now maps to W's register:
    // the map must NOT be clobbered (WAW check, Figure 7).
    rn.writeback(intReg(4), p.preg, p.gen, 7);
    const MapEntry &e = rn.mapEntry(intReg(4));
    EXPECT_FALSE(e.imm);
    EXPECT_EQ(e.preg, w.preg);
    EXPECT_GT(h.stats.scalarValue("pri.narrowButRemapped"), 0.0);
    // P's register is still freed early (it is unmapped and narrow).
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, p.preg));
    rn.checkInvariants();
}

TEST(RenameUnitPri, RefcountBlocksWarOnInFlightConsumer)
{
    Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
    auto &rn = h.rn;

    auto d = rn.renameDest(intReg(5), 9);
    auto s = rn.readSrc(intReg(5)); // consumer renamed, holds a ref
    rn.writeback(intReg(5), d.preg, d.gen, 9);

    // Narrow and inlined, but the register cannot be freed while
    // the consumer might still read it from the PRF (WAR guard).
    EXPECT_TRUE(rn.mapEntry(intReg(5)).imm);
    EXPECT_TRUE(rn.isAllocated(RegClass::Int, d.preg));
    EXPECT_EQ(rn.physRegValue(RegClass::Int, d.preg), 9u);

    rn.consumerDone(s);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, d.preg));
    rn.checkInvariants();
}

TEST(RenameUnitPri, IdealPayloadRewriteFreesImmediately)
{
    Harness h(RenameConfig::of(Scheme::PriIdealCkptcount, kPregs, 7));
    auto &rn = h.rn;

    std::vector<SrcRead *> payload;
    auto d = rn.renameDest(intReg(6), 11);
    auto s1 = rn.readSrc(intReg(6));
    auto s2 = rn.readSrc(intReg(6));
    payload = {&s1, &s2};

    unsigned rewrites = 0;
    rn.setIdealInlineHook([&](RegClass cls, isa::PhysRegId preg,
                              uint64_t value) {
        for (auto *s : payload) {
            if (!s->imm && s->cls == cls && s->preg == preg) {
                rn.consumerSquashed(*s);
                s->imm = true;
                s->value = value;
                ++rewrites;
            }
        }
    });

    rn.writeback(intReg(6), d.preg, d.gen, 11);
    // Both in-flight consumers converted; register freed at once.
    EXPECT_EQ(rewrites, 2u);
    EXPECT_TRUE(s1.imm);
    EXPECT_EQ(s1.value, 11u);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, d.preg));
    rn.checkInvariants();
}

TEST(RenameUnitPri, CkptcountDefersFreeUntilCheckpointResolves)
{
    Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
    auto &rn = h.rn;

    auto d = rn.renameDest(intReg(7), 3);
    const CkptId ck = rn.createCheckpoint(); // branch after producer
    EXPECT_GT(rn.ckptRefs(RegClass::Int, d.preg), 0);

    rn.writeback(intReg(7), d.preg, d.gen, 3);
    EXPECT_TRUE(rn.mapEntry(intReg(7)).imm);
    // Checkpoint still points at the register: free is deferred.
    EXPECT_TRUE(rn.isAllocated(RegClass::Int, d.preg));

    rn.resolveCheckpoint(ck);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, d.preg));
    rn.releaseCheckpoint(ck);
    rn.checkInvariants();
}

TEST(RenameUnitPri, LazyUpdateRewritesCheckpointCopies)
{
    Harness h(RenameConfig::of(Scheme::PriRefcountLazy, kPregs, 7));
    auto &rn = h.rn;

    auto d = rn.renameDest(intReg(8), 13);
    const CkptId ck = rn.createCheckpoint();

    rn.writeback(intReg(8), d.preg, d.gen, 13);
    // Lazy walk updated the checkpointed copy too, so the register
    // frees immediately despite the live checkpoint.
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, d.preg));
    EXPECT_GT(h.stats.scalarValue("pri.lazyCkptUpdates"), 0.0);

    // Restoring the checkpoint yields the immediate, not a stale
    // register pointer.
    rn.restoreCheckpoint(ck);
    const MapEntry &e = rn.mapEntry(intReg(8));
    EXPECT_TRUE(e.imm);
    EXPECT_EQ(e.value, 13u);
    rn.resolveCheckpoint(ck);
    rn.releaseCheckpoint(ck);
    rn.checkInvariants();
}

TEST(RenameUnitPri, RestoreConvertsPendingNarrowToImmediate)
{
    // ckptcount flavour: producer inlines, checkpoint restore would
    // resurrect the stale register mapping; the unit must restore it
    // in immediate mode instead (the value is complete by then).
    Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
    auto &rn = h.rn;

    auto d = rn.renameDest(intReg(9), 21);
    const CkptId ck = rn.createCheckpoint(); // names d.preg
    rn.writeback(intReg(9), d.preg, d.gen, 21);
    EXPECT_TRUE(rn.isAllocated(RegClass::Int, d.preg)); // ckpt ref

    rn.restoreCheckpoint(ck);
    const MapEntry &e = rn.mapEntry(intReg(9));
    EXPECT_TRUE(e.imm);
    EXPECT_EQ(e.value, 21u);
    rn.resolveCheckpoint(ck);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, d.preg));
    rn.releaseCheckpoint(ck);
    rn.checkInvariants();
}

TEST(RenameUnitPri, RestoreRevivesInlinedValueAfterPointerTransition)
{
    // The full inlined -> pointer transition across a checkpoint:
    // the branch sees r2 in immediate mode; the wrong path then
    // redefines r2 with a wide value, flipping the entry back to
    // pointer mode. Recovery must squash the wrong-path register
    // and leave r2 reading as the inlined value again.
    Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
    auto &rn = h.rn;

    auto d = rn.renameDest(intReg(2), 42);
    rn.writeback(intReg(2), d.preg, d.gen, 42);
    ASSERT_TRUE(rn.mapEntry(intReg(2)).imm);

    const CkptId ck = rn.createCheckpoint(); // branch sees imm 42

    auto d2 = rn.renameDest(intReg(2), 1000); // wide redefinition
    rn.writeback(intReg(2), d2.preg, d2.gen, 1000);
    ASSERT_FALSE(rn.mapEntry(intReg(2)).imm);
    auto s = rn.readSrc(intReg(2));
    ASSERT_EQ(s.value, 1000u);
    rn.consumerDone(s);

    // Mispredict: restore and squash the wrong-path destination.
    rn.restoreCheckpoint(ck);
    rn.squashDest(RegClass::Int, d2.preg, d2.gen);

    const MapEntry &e = rn.mapEntry(intReg(2));
    EXPECT_TRUE(e.imm);
    EXPECT_EQ(e.value, 42u);
    auto s2 = rn.readSrc(intReg(2));
    EXPECT_TRUE(s2.imm);
    EXPECT_EQ(s2.value, 42u);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, d2.preg));

    rn.resolveCheckpoint(ck);
    rn.releaseCheckpoint(ck);
    rn.checkInvariants();
}

TEST(RenameUnitEr, FreesCompleteUnmappedRegisterEarly)
{
    Harness h(RenameConfig::of(Scheme::EarlyRelease, kPregs, 7));
    auto &rn = h.rn;

    auto p = rn.renameDest(intReg(10), 999); // wide value
    rn.writeback(intReg(10), p.preg, p.gen, 999);
    EXPECT_TRUE(rn.isAllocated(RegClass::Int, p.preg)); // mapped

    // Next writer unmaps it; no checkpoints exist -> ER frees now,
    // well before the writer commits.
    auto w = rn.renameDest(intReg(10), 1);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, p.preg));
    EXPECT_GT(h.stats.scalarValue("er.earlyFrees"), 0.0);

    // Commit-time free arrives later as a duplicate.
    rn.commitDest(RegClass::Int, w.prev, w.prevGen);
    EXPECT_GT(h.stats.scalarValue("rename.duplicateCommitFrees"),
              0.0);
    rn.checkInvariants();
}

TEST(RenameUnitEr, CheckpointHorizonBlocksEarlyRelease)
{
    Harness h(RenameConfig::of(Scheme::EarlyRelease, kPregs, 7));
    auto &rn = h.rn;

    auto p = rn.renameDest(intReg(11), 999);
    rn.writeback(intReg(11), p.preg, p.gen, 999);
    const CkptId ck = rn.createCheckpoint(); // copy names p.preg
    rn.renameDest(intReg(11), 1);            // unmap

    // The checkpointed copy still maps the register: ER must wait
    // for the checkpoint to die at the commit horizon.
    EXPECT_TRUE(rn.isAllocated(RegClass::Int, p.preg));
    rn.resolveCheckpoint(ck);
    EXPECT_TRUE(rn.isAllocated(RegClass::Int, p.preg));
    rn.releaseCheckpoint(ck); // branch commits
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, p.preg));
    rn.checkInvariants();
}

TEST(RenameUnitEr, IncompleteRegisterNeverFreed)
{
    Harness h(RenameConfig::of(Scheme::EarlyRelease, kPregs, 7));
    auto &rn = h.rn;
    auto p = rn.renameDest(intReg(12), 5);
    rn.renameDest(intReg(12), 6); // unmapped but not yet written
    EXPECT_TRUE(rn.isAllocated(RegClass::Int, p.preg));
    rn.writeback(intReg(12), p.preg, p.gen, 5);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, p.preg));
}

TEST(RenameUnitSquash, RestoreAndSquashDestRecoverState)
{
    Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
    auto &rn = h.rn;

    auto older = rn.renameDest(intReg(13), 500);
    const CkptId ck = rn.createCheckpoint(); // the branch

    // Speculative younger instructions.
    auto y1 = rn.renameDest(intReg(13), 1);
    auto y2 = rn.renameDest(intReg(14), 2);
    auto ys = rn.readSrc(intReg(13));

    // Mispredict: release consumer, restore, free squashed dests.
    rn.consumerSquashed(ys);
    rn.restoreCheckpoint(ck);
    rn.squashDest(RegClass::Int, y1.preg, y1.gen);
    rn.squashDest(RegClass::Int, y2.preg, y2.gen);

    EXPECT_EQ(rn.mapEntry(intReg(13)).preg, older.preg);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, y1.preg));
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, y2.preg));
    rn.resolveCheckpoint(ck);
    rn.releaseCheckpoint(ck);
    rn.checkInvariants();
}

TEST(RenameUnitSquash, EarlyFreedSquashedDestIsDuplicateTolerant)
{
    Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
    auto &rn = h.rn;

    const CkptId ck = rn.createCheckpoint();
    // Speculative producer retires a narrow value before the squash.
    auto y = rn.renameDest(intReg(15), 8);
    rn.writeback(intReg(15), y.preg, y.gen, 8);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, y.preg));

    rn.restoreCheckpoint(ck);
    rn.squashDest(RegClass::Int, y.preg, y.gen); // duplicate
    EXPECT_GT(h.stats.scalarValue("rename.squashDuplicateFrees"),
              0.0);
    rn.resolveCheckpoint(ck);
    rn.releaseCheckpoint(ck);
    rn.checkInvariants();
}

TEST(RenameUnitGen, CommitFreeOfReallocatedRegisterIsIgnored)
{
    Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
    auto &rn = h.rn;

    auto p = rn.renameDest(intReg(16), 3);
    auto w = rn.renameDest(intReg(16), 700); // W's prev = p
    rn.writeback(intReg(16), p.preg, p.gen, 3); // p freed early

    // Another instruction reallocates the same physical register.
    RenameUnit::DestRename other;
    do {
        other = rn.renameDest(intReg(17), 900);
    } while (other.preg != p.preg && rn.canRename(RegClass::Int));
    if (other.preg != p.preg)
        GTEST_SKIP() << "free-list order did not recycle the reg";

    // W commits and tries to free its recorded previous register
    // (p) — the generation check must protect the new owner.
    rn.commitDest(RegClass::Int, w.prev, w.prevGen);
    EXPECT_TRUE(rn.isAllocated(RegClass::Int, p.preg));
    EXPECT_GT(h.stats.scalarValue("rename.duplicateCommitFrees"),
              0.0);
    rn.checkInvariants();
}

TEST(RenameUnitRing, WrapsThenGrowsAndResolvesOutOfOrder)
{
    // Each branch follows its own redefinition of r1, so exactly one
    // live checkpoint names each d[k] and its reference count shows
    // which checkpoint a resolve reached.
    Harness h(RenameConfig::of(Scheme::PriRefcountCkptcount, kPregs, 7));
    auto &rn = h.rn;
    std::vector<RenameUnit::DestRename> d;
    std::vector<CkptId> ck;
    const auto branch = [&] {
        d.push_back(rn.renameDest(intReg(1), 1000 + d.size()));
        ck.push_back(rn.createCheckpoint());
    };
    const auto refs = [&](size_t k) {
        return rn.ckptRefs(RegClass::Int, d[k].preg);
    };

    branch(); // A
    branch(); // B
    branch(); // C: three slots, all live
    rn.resolveCheckpoint(ck[0]);
    rn.releaseCheckpoint(ck[0]);
    branch(); // D reuses A's slot: the ring has wrapped
    EXPECT_EQ(rn.liveCheckpoints(), 3u);

    rn.resolveCheckpoint(ck[3]); // youngest, in the first slot
    EXPECT_EQ(refs(3), 0);
    EXPECT_EQ(refs(1), 1);
    EXPECT_EQ(refs(2), 1);

    branch(); // E: a new high-water mark while wrapped
    EXPECT_EQ(rn.liveCheckpoints(), 4u);
    rn.resolveCheckpoint(ck[2]);
    EXPECT_EQ(refs(2), 0);
    EXPECT_EQ(refs(1), 1);
    EXPECT_EQ(refs(4), 1);
    rn.resolveCheckpoint(ck[4]);
    EXPECT_EQ(refs(4), 0);
    rn.resolveCheckpoint(ck[1]);
    EXPECT_EQ(refs(1), 0);

    for (size_t k = 1; k < ck.size(); ++k) {
        rn.releaseCheckpoint(ck[k]);
        EXPECT_EQ(rn.liveCheckpoints(), ck.size() - 1 - k);
    }
    rn.checkInvariants();
}

TEST(RenameUnitRing, LazyWritebackAfterWrapRewritesEveryCopy)
{
    Harness h(RenameConfig::of(Scheme::PriRefcountLazy, kPregs, 7));
    auto &rn = h.rn;
    auto p = rn.renameDest(intReg(2), 5); // narrow, not yet written
    const CkptId a = rn.createCheckpoint();
    const CkptId b = rn.createCheckpoint();
    const CkptId c = rn.createCheckpoint();
    rn.resolveCheckpoint(a);
    rn.releaseCheckpoint(a);
    const CkptId d = rn.createCheckpoint(); // wraps into A's slot

    rn.writeback(intReg(2), p.preg, p.gen, 5);
    EXPECT_EQ(h.stats.scalarValue("pri.lazyCkptUpdates"), 3.0);
    EXPECT_FALSE(rn.isAllocated(RegClass::Int, p.preg));

    // Recover to the youngest copy, then squash back to the oldest.
    rn.restoreCheckpoint(d);
    EXPECT_TRUE(rn.mapEntry(intReg(2)).imm);
    rn.resolveCheckpoint(d);
    rn.discardCheckpoint(d);
    rn.discardCheckpoint(c);
    rn.restoreCheckpoint(b);
    const MapEntry &e = rn.mapEntry(intReg(2));
    EXPECT_TRUE(e.imm);
    EXPECT_EQ(e.value, 5u);
    rn.resolveCheckpoint(b);
    rn.releaseCheckpoint(b);
    EXPECT_EQ(rn.liveCheckpoints(), 0u);
    rn.checkInvariants();
}

TEST(RenameUnitRing, CheckpointsLeaveOnlyFromTheEnds)
{
    Harness h(RenameConfig::of(Scheme::Base, kPregs, 7));
    auto &rn = h.rn;
    const CkptId a = rn.createCheckpoint();
    const CkptId b = rn.createCheckpoint();
    const CkptId c = rn.createCheckpoint();
    rn.resolveCheckpoint(a);
    rn.resolveCheckpoint(b);
    {
        ScopedErrorCapture capture;
        EXPECT_THROW(rn.releaseCheckpoint(b), PanicError); // not oldest
        EXPECT_THROW(rn.discardCheckpoint(b), PanicError); // not youngest
    }
    ASSERT_EQ(rn.liveCheckpoints(), 3u);
    rn.discardCheckpoint(c);
    rn.releaseCheckpoint(a);
    rn.releaseCheckpoint(b);
    EXPECT_EQ(rn.liveCheckpoints(), 0u);
}

TEST(RenameUnitEr, ReleaseFreesUnmappedRegistersInIndexOrder)
{
    Harness h(RenameConfig::of(Scheme::EarlyRelease, kPregs, 7));
    auto &rn = h.rn;
    std::vector<isa::PhysRegId> held;
    for (uint8_t r : {3, 4, 5}) {
        auto d = rn.renameDest(intReg(r), 1000 + r);
        rn.writeback(intReg(r), d.preg, d.gen, 1000 + r);
        held.push_back(d.preg);
    }
    const CkptId ck = rn.createCheckpoint(); // its copy names all three
    for (uint8_t r : {3, 5, 4})              // unmap out of index order
        rn.renameDest(intReg(r), 7);
    rn.resolveCheckpoint(ck);
    for (auto p : held)
        EXPECT_TRUE(rn.isAllocated(RegClass::Int, p));

    const double early0 = h.stats.scalarValue("er.earlyFrees");
    rn.releaseCheckpoint(ck);
    EXPECT_EQ(h.stats.scalarValue("er.earlyFrees") - early0, 3.0);

    // The sweep frees in ascending index order and the free list is
    // a stack, so the highest index comes back first. (Redefining r3
    // unmaps only unwritten registers, which ER cannot free.)
    std::sort(held.begin(), held.end());
    for (auto it = held.rbegin(); it != held.rend(); ++it)
        EXPECT_EQ(rn.renameDest(intReg(3), 1).preg, *it);
    rn.checkInvariants();
}

class SchemeInvariantTest : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(SchemeInvariantTest, RandomisedOperationSoak)
{
    // Pseudo-random but well-formed call sequence across every
    // scheme: rename/read/writeback/commit with occasional
    // checkpoints; invariants must hold throughout and at drain.
    Harness h(RenameConfig::of(GetParam(), kPregs, 7));
    auto &rn = h.rn;

    struct Pending
    {
        RenameUnit::DestRename d;
        isa::RegId reg;
        uint64_t value;
        std::vector<SrcRead> srcs;
        CkptId ck = 0;
        bool isBranch = false;
    };
    std::deque<Pending> rob;
    uint64_t rng = 777;
    auto rand = [&]() {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        return rng >> 33;
    };

    rn.setIdealInlineHook([&](RegClass cls, isa::PhysRegId preg,
                              uint64_t value) {
        for (auto &e : rob) {
            for (auto &s : e.srcs) {
                if (!s.imm && s.refHeld && s.cls == cls &&
                    s.preg == preg) {
                    rn.consumerSquashed(s);
                    s.imm = true;
                    s.value = value;
                }
            }
        }
    });

    for (uint64_t cycle = 1; cycle <= 4000; ++cycle) {
        rn.beginCycle(cycle);
        // Rename one instruction if possible.
        if (rn.canRename(RegClass::Int) && rob.size() < 64) {
            Pending p;
            p.reg = intReg(static_cast<uint8_t>(rand() % 32));
            p.value = rand() % 4096; // mix of narrow and wide
            p.srcs.push_back(
                rn.readSrc(intReg(static_cast<uint8_t>(rand() % 32))));
            p.d = rn.renameDest(p.reg, p.value);
            if (rand() % 6 == 0) {
                p.isBranch = true;
                p.ck = rn.createCheckpoint();
            }
            rob.push_back(std::move(p));
        }
        // Write back + commit the oldest every few cycles.
        if (cycle % 3 == 0 && !rob.empty()) {
            Pending &p = rob.front();
            for (auto &s : p.srcs)
                rn.consumerDone(s);
            rn.writeback(p.reg, p.d.preg, p.d.gen, p.value);
            if (p.isBranch) {
                rn.resolveCheckpoint(p.ck);
                rn.releaseCheckpoint(p.ck);
            }
            rn.commitDest(RegClass::Int, p.d.prev, p.d.prevGen);
            rob.pop_front();
        }
        if (cycle % 64 == 0)
            rn.checkInvariants();
    }
    // Drain.
    while (!rob.empty()) {
        Pending &p = rob.front();
        for (auto &s : p.srcs)
            rn.consumerDone(s);
        rn.writeback(p.reg, p.d.preg, p.d.gen, p.value);
        if (p.isBranch) {
            rn.resolveCheckpoint(p.ck);
            rn.releaseCheckpoint(p.ck);
        }
        rn.commitDest(RegClass::Int, p.d.prev, p.d.prevGen);
        rob.pop_front();
    }
    rn.checkInvariants();
    EXPECT_EQ(rn.liveCheckpoints(), 0u);
}

// ctest names each case by its printed param: ".../PRI+ER".
INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeInvariantTest,
    ::testing::Values(Scheme::Base, Scheme::EarlyRelease,
                      Scheme::PriRefcountCkptcount,
                      Scheme::PriRefcountLazy,
                      Scheme::PriIdealCkptcount, Scheme::PriIdealLazy,
                      Scheme::PriPlusEr, Scheme::InfinitePregs));

TEST(RenameConfigNames, MatchPaperLegend)
{
    // The figure legends, in Scheme order: journal lines store these
    // labels, so none may change.
    const std::string legend[] = {
        "Base", "ER", "PRI-refcount+ckptcount", "PRI-refcount+lazy",
        "PRI-ideal+ckptcount", "PRI-ideal+lazy", "PRI+ER", "InfPR",
        "VP", "VP+PRI",
    };
    ASSERT_EQ(std::size(kSchemeTable), std::size(legend));
    std::set<std::string> labels;
    std::set<std::string> tokens;
    for (size_t i = 0; i < std::size(kSchemeTable); ++i) {
        const SchemeRow &row = kSchemeTable[i];
        SCOPED_TRACE(row.label);
        EXPECT_EQ(row.label, legend[i]);
        EXPECT_TRUE(labels.insert(row.label).second);
        EXPECT_TRUE(tokens.insert(row.token).second);
        const SchemeRow *parsed = schemeByToken(row.token);
        ASSERT_NE(parsed, nullptr);
        EXPECT_EQ(schemeName(parsed->scheme), legend[i]);
    }
    EXPECT_EQ(schemeByToken("pri-bogus"), nullptr);
    EXPECT_EQ(RenameConfig::of(Scheme::InfinitePregs, 48, 7).numPhysRegs,
              1024u);
    EXPECT_EQ(RenameConfig::of(Scheme::PriPlusEr, 48, 7).numPhysRegs,
              48u);
}

} // namespace
} // namespace pri::rename
