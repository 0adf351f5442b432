/**
 * @file
 * Tests for the statistics package.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace pri
{
namespace
{

TEST(StatScalar, IncrementAndAdd)
{
    StatScalar s;
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s -= 1.0;
    EXPECT_DOUBLE_EQ(s.value(), 2.5);
}

TEST(StatAverage, MeanMinMax)
{
    StatAverage a;
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_DOUBLE_EQ(a.total(), 15.0);
}

TEST(StatAverage, EmptyIsZero)
{
    StatAverage a;
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.count(), 0u);
}

TEST(StatDistribution, BucketsAndClamp)
{
    StatDistribution d(4);
    d.sample(0);
    d.sample(1);
    d.sample(1);
    d.sample(99); // clamps into last bucket
    EXPECT_EQ(d.count(), 4u);
    EXPECT_EQ(d.bucket(0), 1u);
    EXPECT_EQ(d.bucket(1), 2u);
    EXPECT_EQ(d.bucket(3), 1u);
}

TEST(StatDistribution, Cdf)
{
    StatDistribution d(10);
    for (uint64_t i = 0; i < 10; ++i)
        d.sample(i);
    EXPECT_DOUBLE_EQ(d.cdfAt(4), 0.5);
    EXPECT_DOUBLE_EQ(d.cdfAt(9), 1.0);
}

TEST(StatDistribution, Mean)
{
    StatDistribution d(10);
    d.sample(2);
    d.sample(4);
    EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(StatGroup, ScalarLookupAndReport)
{
    StatGroup g;
    g.scalar("a.count") += 7;
    g.average("a.avg").sample(3.0);

    EXPECT_DOUBLE_EQ(g.scalarValue("a.count"), 7.0);
    EXPECT_DOUBLE_EQ(g.scalarValue("missing"), 0.0);

    const std::string rep = g.report();
    EXPECT_NE(rep.find("a.count"), std::string::npos);
    EXPECT_NE(rep.find("a.avg"), std::string::npos);
}

TEST(StatGroup, SameNameReturnsSameStat)
{
    StatGroup g;
    g.scalar("n") += 1;
    g.scalar("n") += 1;
    EXPECT_DOUBLE_EQ(g.scalarValue("n"), 2.0);
}

TEST(StatGroup, InternedHandleUpdatesVisibleByName)
{
    StatGroup g;
    StatScalar &h = g.scalar("core.counter");
    h += 3;
    ++h;
    EXPECT_DOUBLE_EQ(g.scalarValue("core.counter"), 4.0);

    StatAverage &a = g.average("core.avg");
    a.sample(2.0);
    a.sample(4.0);
    EXPECT_DOUBLE_EQ(g.average("core.avg").mean(), 3.0);
}

TEST(StatGroup, InternedHandleStableAcrossLaterRegistrations)
{
    // The handles are held for the lifetime of a core; later
    // registrations must not invalidate them.
    StatGroup g;
    StatScalar &first = g.scalar("a.first");
    for (char c = 'b'; c <= 'z'; ++c)
        g.scalar(std::string(1, c) + ".filler");
    first += 5;
    EXPECT_DOUBLE_EQ(g.scalarValue("a.first"), 5.0);
}

} // namespace
} // namespace pri
