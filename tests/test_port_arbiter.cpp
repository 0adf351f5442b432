/**
 * @file
 * Randomized property tests for the PRF read-port arbiter
 * (core/port_arbiter.hh), cross-checked against a naive reference
 * arbiter. The unit is a per-cycle budget counter; the tests drive
 * it the way selectStage does — requesters presented strictly in
 * age order each cycle, denied requesters retried next cycle — and
 * check the contract the timing model depends on:
 *
 *  - grants never exceed the cycle budget;
 *  - grant decisions are greedy all-or-nothing in presentation
 *    (age) order, bit-for-bit equal to the reference;
 *  - with budget >= the maximum per-op need, the oldest pending
 *    requester is always granted, so no requester waits longer
 *    than its arrival-queue position (bounded starvation);
 *  - zero-need requests (fully inlined operands) always issue;
 *  - the unlimited arbiter never denies anything.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "common/hashing.hh"
#include "core/port_arbiter.hh"

namespace pri::core
{
namespace
{

struct Requester
{
    unsigned need = 0;
    unsigned arrivalPos = 0; ///< queue depth when it arrived
    unsigned waited = 0;     ///< cycles spent denied
};

/** Reference grant rule: walk the queue in age order with a plain
 *  remaining-ports counter; grant all-or-nothing. */
std::vector<bool>
referenceGrants(const std::deque<Requester> &q, unsigned budget)
{
    std::vector<bool> grant(q.size(), false);
    if (budget == 0) { // unlimited
        grant.assign(q.size(), true);
        return grant;
    }
    unsigned left = budget;
    for (size_t i = 0; i < q.size(); ++i) {
        if (q[i].need <= left) {
            grant[i] = true;
            left -= q[i].need;
        }
    }
    return grant;
}

TEST(PortArbiter, RandomizedAgainstReference)
{
    for (uint64_t trial = 0; trial < 64; ++trial) {
        // budget 0 (unlimited) and 2..8; max per-op need is 2, so
        // every finite budget satisfies the arbiter's >= 2 floor.
        const unsigned budget = trial % 8 == 0
            ? 0
            : 2 + static_cast<unsigned>(hashRange(7, 77, trial, 1));
        ReadPortArbiter arb(budget);
        SCOPED_TRACE("trial " + std::to_string(trial) + " budget " +
                     std::to_string(budget));

        std::deque<Requester> pending;
        for (unsigned cycle = 0; cycle < 200; ++cycle) {
            // 0-3 new requesters per cycle, each needing 0-2 ports.
            const auto n_new = hashRange(4, trial, cycle, 2);
            for (uint64_t j = 0; j < n_new; ++j) {
                Requester r;
                r.need = static_cast<unsigned>(
                    hashRange(3, trial, cycle, 3 + j));
                r.arrivalPos =
                    static_cast<unsigned>(pending.size());
                pending.push_back(r);
            }

            const auto expect = referenceGrants(pending, budget);
            arb.beginCycle();
            EXPECT_FALSE(arb.deniedThisCycle());

            unsigned ports_this_cycle = 0;
            bool any_denied = false;
            std::deque<Requester> next;
            for (size_t i = 0; i < pending.size(); ++i) {
                const bool got = arb.request(pending[i].need);
                ASSERT_EQ(got, expect[i])
                    << "cycle " << cycle << " requester " << i;
                if (got) {
                    ports_this_cycle += pending[i].need;
                    // Zero-need ops issue even with nothing left.
                    if (pending[i].need == 0 && budget != 0)
                        EXPECT_LE(ports_this_cycle, budget);
                } else {
                    any_denied = true;
                    Requester r = pending[i];
                    ++r.waited;
                    // Bounded starvation: budget >= max need means
                    // the oldest pending requester always issues,
                    // so waits are bounded by the arrival queue
                    // depth (each cycle retires at least the op
                    // ahead of it).
                    EXPECT_LE(r.waited, r.arrivalPos + 1)
                        << "cycle " << cycle;
                    next.push_back(r);
                }
            }
            if (budget != 0)
                EXPECT_LE(ports_this_cycle, budget);
            else
                EXPECT_FALSE(any_denied);
            EXPECT_EQ(arb.deniedThisCycle(), any_denied);
            if (budget != 0) {
                EXPECT_EQ(arb.remaining(),
                          budget - ports_this_cycle);
            }
            pending = std::move(next);
        }
    }
}

TEST(PortArbiter, UnlimitedNeverDenies)
{
    ReadPortArbiter arb(0);
    arb.beginCycle();
    for (unsigned i = 0; i < 1000; ++i)
        EXPECT_TRUE(arb.request(2));
    EXPECT_FALSE(arb.deniedThisCycle());
    EXPECT_EQ(arb.remaining(), ~0u);
}

TEST(PortArbiter, OldestAlwaysGrantedAtFloorBudget)
{
    // The floor budget (2) still covers the worst-case per-op need,
    // so the first request of every cycle must succeed — the
    // age-priority guarantee selectStage relies on for forward
    // progress.
    ReadPortArbiter arb(2);
    for (unsigned cycle = 0; cycle < 50; ++cycle) {
        arb.beginCycle();
        EXPECT_TRUE(arb.request(cycle % 3));
    }
}

TEST(PortArbiter, OverGrantSeamExhaustsBudget)
{
    ReadPortArbiter arb(4);
    arb.beginCycle();
    EXPECT_TRUE(arb.request(3));
    EXPECT_FALSE(arb.request(2));
    arb.overGrant(); // the planted-fault path grants it anyway
    EXPECT_EQ(arb.remaining(), 0u);
    EXPECT_FALSE(arb.request(1)); // one port was left before it
    EXPECT_TRUE(arb.request(0));  // zero-need still issues
}

} // namespace
} // namespace pri::core
