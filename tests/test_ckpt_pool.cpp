/**
 * @file
 * Tests for pooled branch checkpointing: CheckpointPool slot and
 * generation semantics, the full core's pool never filling, and a
 * property test that journal-based restore (RAS undo log + reusable
 * walker slots) is observationally identical to full-copy snapshots
 * under random checkpoint/steer/restore interleavings. The pool's
 * timing is pinned in test_sched_wakeup.cpp.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <vector>

#include "branch/predictor.hh"
#include "core/checkpoint_pool.hh"
#include "core/core.hh"
#include "workload/program.hh"
#include "workload/walker.hh"

namespace pri
{
namespace
{

// --- CheckpointPool unit tests ---------------------------------

TEST(CheckpointPool, FillsAndReclaimsOutOfOrder)
{
    core::CheckpointPool pool(4);
    EXPECT_EQ(pool.capacity(), 4u);
    EXPECT_TRUE(pool.empty());

    std::vector<core::CkptRef> refs;
    for (int i = 0; i < 4; ++i)
        refs.push_back(pool.allocate());
    EXPECT_TRUE(pool.full());
    EXPECT_EQ(pool.liveSlots(), 4u);

    // Branches resolve out of order: releasing an interior slot
    // frees no window space until the edges pass it...
    pool.release(refs[1]);
    EXPECT_TRUE(pool.full());
    EXPECT_EQ(pool.liveSlots(), 3u);

    // ...but releasing the head edge reclaims past the dead slot.
    pool.release(refs[0]);
    EXPECT_FALSE(pool.full());
    EXPECT_EQ(pool.liveSlots(), 2u);

    refs.push_back(pool.allocate());
    refs.push_back(pool.allocate());
    EXPECT_TRUE(pool.full());

    pool.release(refs[2]);
    pool.release(refs[3]);
    pool.release(refs[4]);
    pool.release(refs[5]);
    EXPECT_TRUE(pool.empty());
    EXPECT_FALSE(pool.full());
}

TEST(CheckpointPool, OldestFollowsCreationOrder)
{
    core::CheckpointPool pool(4);
    auto a = pool.allocate();
    auto b = pool.allocate();
    pool.get(a).archSeq = 100;
    pool.get(b).archSeq = 200;
    EXPECT_EQ(pool.oldest().archSeq, 100u);
    pool.release(a);
    EXPECT_EQ(pool.oldest().archSeq, 200u);
}

TEST(CheckpointPool, SlotsRetainStorageAcrossReuse)
{
    // The walker checkpoint inside a slot keeps its stack capacity
    // across release/allocate cycles: that is the whole point of
    // the pool (grow once, never allocate again).
    core::CheckpointPool pool(1);
    auto r = pool.allocate();
    pool.get(r).walker.stack.resize(64);
    const size_t cap = pool.get(r).walker.stack.capacity();
    pool.release(r);
    auto r2 = pool.allocate();
    EXPECT_GE(pool.get(r2).walker.stack.capacity(), cap);
}

TEST(CheckpointPoolDeathTest, StaleReferencePanics)
{
    core::CheckpointPool pool(2);
    auto r = pool.allocate();
    pool.release(r);
    // The slot's generation advanced; the old ref must not resolve.
    EXPECT_DEATH(pool.get(r), "stale checkpoint reference");
}

TEST(CheckpointPoolDeathTest, DoubleFreePanics)
{
    core::CheckpointPool pool(2);
    auto r = pool.allocate();
    pool.release(r);
    EXPECT_DEATH(pool.release(r), "double-free");
}

TEST(CheckpointPoolDeathTest, ReuseAfterReleasePanicsOnOldRef)
{
    // A ref that survived a squash must not alias the slot's next
    // tenant, even though the index is live again.
    core::CheckpointPool pool(1);
    auto old_ref = pool.allocate();
    pool.release(old_ref);
    auto fresh = pool.allocate();
    EXPECT_EQ(old_ref.idx, fresh.idx);
    EXPECT_NE(old_ref.gen, fresh.gen);
    EXPECT_DEATH(pool.get(old_ref), "stale checkpoint reference");
    EXPECT_DEATH(pool.release(old_ref), "double-free");
}

TEST(CheckpointPoolDeathTest, OverflowPanics)
{
    core::CheckpointPool pool(1);
    (void)pool.allocate();
    EXPECT_DEATH(pool.allocate(), "checkpoint pool overflow");
}

// --- the pool on the full core ----------------------------------

struct CoreHarness
{
    StatGroup stats;
    workload::SyntheticProgram prog;
    core::OutOfOrderCore cpu;

    CoreHarness(const core::CoreConfig &cfg, const std::string &bench,
                uint64_t seed = 3)
        : prog(workload::profileByName(bench), seed),
          cpu(cfg, prog, stats)
    {
    }
};

TEST(PooledCore, AutoSizedPoolNeverStalls)
{
    // The capacity (kRobSize + fetchQueueSize) has one slot for
    // every branch that can possibly be in flight, so allocate()'s
    // overflow assert never fires and the stall stat stays at 0.
    const auto cfg = core::CoreConfig::of(
        4, rename::RenameConfig::of(rename::Scheme::Base, 64, 7));
    CoreHarness h(cfg, "gcc", 23);
    h.cpu.run(30000);
    EXPECT_GT(h.stats.scalarValue("core.ckptsTaken"), 1000.0);
    EXPECT_GT(h.stats.scalarValue("core.ckptsRestored"), 50.0);
    EXPECT_EQ(h.stats.scalarValue("core.ckptPoolStalls"), 0.0);
    h.cpu.checkInvariants();
}

// --- property test: journal restore == full-copy restore -------

/** Pop every live entry (on a copy), newest first. */
std::vector<uint64_t>
drainRas(branch::Ras ras)
{
    std::vector<uint64_t> out;
    while (!ras.empty())
        out.push_back(ras.pop());
    return out;
}

TEST(CheckpointProperty, JournalRestoreMatchesFullCopy)
{
    // Two identical front-ends walk the same program and take a
    // checkpoint at every branch while slots are available. One
    // records pooled-style state (reusable walker slots, RAS
    // journal positions, history); the other records reference
    // full copies. Under random steering, random restores to any
    // live checkpoint, and random oldest-first releases (with
    // journal trims), every observable -- instruction stream,
    // predictor history, drained RAS contents -- must stay
    // identical between the two.
    const auto &prof = workload::profileByName("gcc");
    workload::SyntheticProgram prog(prof, 7);
    workload::Walker wj(prog);
    workload::Walker wf(prog);
    branch::CombinedPredictor pj, pf;
    branch::Ras rasJ;
    branch::Ras rasF;
    rasF.setJournaling(false);

    constexpr unsigned kSlots = 8;
    std::vector<workload::WalkerCkpt> slots(kSlots);
    std::vector<unsigned> freeSlots;
    for (unsigned i = 0; i < kSlots; ++i)
        freeSlots.push_back(i);

    struct Ckpt
    {
        workload::WInst wi; ///< the branch, for re-steering
        unsigned slotIdx;   ///< pooled walker state
        branch::PredictorSnapshot snapJ;
        workload::WalkerCkpt full; ///< reference walker copy
        branch::PredictorSnapshotFull snapF;
    };
    std::deque<Ckpt> live;

    std::mt19937 rng(0xC4A7);
    auto chance = [&](double p) {
        return std::uniform_real_distribution<>(0, 1)(rng) < p;
    };

    const auto trimToOldest = [&] {
        rasJ.trimJournal(live.empty() ? rasJ.journalSeq()
                                      : live.front().snapJ.rasSeq);
    };

    for (int step = 0; step < 20000; ++step) {
        const workload::WInst a = wj.next();
        const workload::WInst b = wf.next();
        ASSERT_EQ(a.pc, b.pc) << "step " << step;
        ASSERT_EQ(a.seq, b.seq);
        ASSERT_EQ(a.resultValue, b.resultValue);
        ASSERT_EQ(a.memAddr, b.memAddr);
        ASSERT_EQ(a.taken, b.taken);

        if (a.isBranch()) {
            if (!a.isUncond) {
                (void)pj.predict(a.pc);
                (void)pf.predict(a.pc);
            }
            if (a.isCall) {
                rasJ.push(a.fallThrough);
                rasF.push(a.fallThrough);
            } else if (a.isReturn) {
                ASSERT_EQ(rasJ.pop(), rasF.pop());
            }

            if (!freeSlots.empty() && chance(0.8)) {
                Ckpt c;
                c.wi = a;
                c.slotIdx = freeSlots.back();
                freeSlots.pop_back();
                wj.checkpointInto(slots[c.slotIdx]);
                c.full = wf.checkpoint();
                c.snapJ.history = pj.history();
                rasJ.snapshot(c.snapJ);
                c.snapF.history = pf.history();
                rasF.snapshot(c.snapF);
                live.push_back(c);
            }

            const bool taken = a.isUncond || chance(0.5);
            const uint64_t tgt =
                taken ? a.actualTarget : a.fallThrough;
            wj.steer(a, taken, tgt);
            wf.steer(a, taken, tgt);
        }

        // Mispredict recovery: restore a random live checkpoint,
        // squashing it and everything younger.
        if (!live.empty() && chance(0.10)) {
            const size_t k = std::uniform_int_distribution<size_t>(
                0, live.size() - 1)(rng);
            const Ckpt &c = live[k];
            wj.restore(slots[c.slotIdx]);
            wf.restore(c.full);
            rasJ.restore(c.snapJ);
            rasF.restore(c.snapF);
            pj.setHistory(c.snapJ.history);
            pf.setHistory(c.snapF.history);
            ASSERT_EQ(pj.history(), pf.history());
            ASSERT_EQ(drainRas(rasJ), drainRas(rasF))
                << "RAS diverged after restore at step " << step;

            // Resume down the actual path.
            wj.steer(c.wi, c.wi.taken, c.wi.actualTarget);
            wf.steer(c.wi, c.wi.taken, c.wi.actualTarget);
            while (live.size() > k) {
                freeSlots.push_back(live.back().slotIdx);
                live.pop_back();
            }
            trimToOldest();
        }

        // Oldest branch resolves correctly: release its checkpoint
        // and trim the journal up to the next live one.
        if (!live.empty() && chance(0.05)) {
            freeSlots.push_back(live.front().slotIdx);
            live.pop_front();
            trimToOldest();
        }
    }

    EXPECT_EQ(pj.history(), pf.history());
    EXPECT_EQ(drainRas(rasJ), drainRas(rasF));
}

} // namespace
} // namespace pri
