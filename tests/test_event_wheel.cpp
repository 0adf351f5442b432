/**
 * @file
 * Tests for the core's intrusive timing wheel (core/event_wheel.hh):
 * FIFO order per (bucket, list), O(1) unlink from any position,
 * horizon wrap-around, the audit's empty-block skip, and a
 * randomized drive cross-checked against a reference of one
 * std::deque per (cycle, list). The drive mirrors
 * how the core uses the wheel: every cycle pops due nodes list by
 * list, re-pushes some of them into later cycles while draining, and
 * unlinks pending nodes at random (squash).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/hashing.hh"
#include "core/event_wheel.hh"

namespace pri::core
{
namespace
{

/** Pop every node of (@p now, @p list) in order. */
std::vector<int32_t>
drain(SlotWheel &w, uint64_t now, unsigned list)
{
    std::vector<int32_t> out;
    for (int32_t n; (n = w.pop(now, list)) != -1;)
        out.push_back(n);
    return out;
}

TEST(SlotWheel, PopsInPushOrderPerList)
{
    SlotWheel w(8, 2);
    w.push(3, 5, 0, 7);
    w.push(1, 5, 1);
    w.push(6, 5, 0);
    w.push(2, 6, 0);
    EXPECT_TRUE(w.pending(3));
    EXPECT_EQ(w.at(3), 5u);
    EXPECT_EQ(w.tag(3), 7u);
    EXPECT_EQ(w.audit([](uint32_t) {}), 4u);

    EXPECT_EQ(drain(w, 5, 0), (std::vector<int32_t>{3, 6}));
    EXPECT_EQ(drain(w, 5, 1), (std::vector<int32_t>{1}));
    EXPECT_FALSE(w.pending(3));
    EXPECT_EQ(w.at(3), SlotWheel::kIdle);
    EXPECT_EQ(w.tag(3), 7u) << "the tag survives the pop";
    EXPECT_EQ(w.pop(6, 1), -1);
    EXPECT_EQ(drain(w, 6, 0), (std::vector<int32_t>{2}));
    EXPECT_EQ(w.audit([](uint32_t) {}), 0u);
}

TEST(SlotWheel, UnlinkFromHeadMiddleAndTail)
{
    SlotWheel w(8, 1);
    for (uint32_t n : {0u, 1u, 2u, 3u, 4u})
        w.push(n, 9, 0);
    w.unlink(2); // middle
    w.unlink(0); // head
    w.unlink(4); // tail
    EXPECT_FALSE(w.pending(4));
    w.push(4, 9, 0); // re-link after the new tail
    EXPECT_EQ(w.audit([](uint32_t) {}), 3u);
    EXPECT_EQ(drain(w, 9, 0), (std::vector<int32_t>{1, 3, 4}));
}

TEST(SlotWheel, BucketsWrapAtTheHorizon)
{
    SlotWheel w(4, 1);
    const uint64_t now = 2 * SlotWheel::kHorizon - 3;
    const uint64_t far = now + SlotWheel::kHorizon - 1; // wraps
    w.push(0, far, 0);
    w.push(1, now + 1, 0);
    for (uint64_t c = now + 1; c < far; ++c)
        EXPECT_EQ(w.pop(c, 0), c == now + 1 ? 1 : -1) << c;
    EXPECT_EQ(w.pop(far, 0), 0);
    EXPECT_EQ(w.audit([](uint32_t) {}), 0u);
}

TEST(SlotWheel, AuditSkipsOnlyEmptyBlocks)
{
    // audit() skips 16 lists at a time when all of them are empty.
    // Nodes sit at both ends of the first block, alone at the end of
    // one block and at the start of the next, and in the last and
    // first lists, which cycles either side of a horizon wrap fill.
    constexpr uint64_t kH = SlotWheel::kHorizon;
    const uint64_t t0 = 5 * kH + 1000;
    for (unsigned lists : {1u, 2u}) {
        const unsigned total = kH * lists;
        const std::vector<unsigned> at_list = {
            0, 15, 15, 31, 32, total - 16, total - 1};
        SlotWheel w(static_cast<unsigned>(at_list.size()), lists);
        for (uint32_t n = 0; n < at_list.size(); ++n) {
            const uint64_t bucket = at_list[n] / lists;
            // The first cycle at or after t0 that lands in bucket.
            const uint64_t when = t0 + (bucket + kH - t0 % kH) % kH;
            w.push(n, when, at_list[n] % lists);
        }
        std::vector<unsigned> visits(at_list.size(), 0);
        EXPECT_EQ(w.audit([&](uint32_t n) { ++visits[n]; }),
                  at_list.size())
            << lists << " lists";
        EXPECT_EQ(visits, std::vector<unsigned>(at_list.size(), 1))
            << lists << " lists";
    }
}

TEST(SlotWheel, RandomDriveMatchesReference)
{
    constexpr unsigned kNodes = 96;
    constexpr unsigned kLists = 2;
    constexpr uint64_t kReach = 40; // < kHorizon, exercises wrap too
    SlotWheel w(kNodes, kLists);
    std::map<std::pair<uint64_t, unsigned>, std::deque<uint32_t>> ref;
    std::vector<uint64_t> due(kNodes, SlotWheel::kIdle);
    std::vector<unsigned> on(kNodes, 0);
    uint64_t rnd = 0;
    const auto draw = [&](uint64_t bound) {
        return hashRange(bound, ++rnd, 0x77686565ULL);
    };
    const auto push = [&](uint32_t n, uint64_t when, unsigned list) {
        w.push(n, when, list, static_cast<uint8_t>(list + 1));
        ref[{when, list}].push_back(n);
        due[n] = when;
        on[n] = list;
    };
    const auto unlink = [&](uint32_t n) {
        w.unlink(n);
        auto &q = ref[{due[n], on[n]}];
        q.erase(std::find(q.begin(), q.end(), n));
        due[n] = SlotWheel::kIdle;
    };

    for (uint64_t now = 1; now < 3 * SlotWheel::kHorizon; ++now) {
        for (unsigned k = 0; k < 6; ++k) {
            const uint32_t n = static_cast<uint32_t>(draw(kNodes));
            if (due[n] == SlotWheel::kIdle) {
                push(n, now + 1 + draw(kReach),
                     static_cast<unsigned>(draw(kLists)));
            } else if (draw(4) == 0) {
                unlink(n);
            }
        }
        for (unsigned list = 0; list < kLists; ++list) {
            auto &q = ref[{now, list}];
            for (int32_t n; (n = w.pop(now, list)) != -1;) {
                ASSERT_FALSE(q.empty());
                ASSERT_EQ(static_cast<uint32_t>(n), q.front());
                ASSERT_EQ(w.tag(static_cast<uint32_t>(n)), list + 1);
                q.pop_front();
                due[n] = SlotWheel::kIdle;
                // A handler scheduling a later cycle mid-drain.
                if (draw(3) == 0)
                    push(static_cast<uint32_t>(n), now + 1 + draw(kReach),
                         list);
                // A squash unlinking a node due later this cycle.
                const uint32_t v = static_cast<uint32_t>(draw(kNodes));
                if (due[v] == now && draw(4) == 0)
                    unlink(v);
            }
            ASSERT_TRUE(q.empty()) << "cycle " << now << " list " << list;
            ref.erase({now, list});
        }
        unsigned pending = 0;
        for (uint32_t n = 0; n < kNodes; ++n) {
            ASSERT_EQ(w.pending(n), due[n] != SlotWheel::kIdle);
            ASSERT_EQ(w.at(n), due[n]);
            pending += w.pending(n) ? 1 : 0;
        }
        ASSERT_EQ(w.audit([&](uint32_t n) { ASSERT_NE(due[n], 0u); }),
                  pending);
    }
}

} // namespace
} // namespace pri::core
