/**
 * @file
 * The tests' one RunResult comparison: two results are identical
 * when their PRIJ3 lines are, which carry every field bit for bit
 * (doubles in hexfloat).
 */

#ifndef PRI_TESTS_EXPECT_IDENTICAL_HH
#define PRI_TESTS_EXPECT_IDENTICAL_HH

#include <gtest/gtest.h>

#include "sim/result_codec.hh"

namespace pri::sim
{

inline void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(codec::formatResultLine(0, a),
              codec::formatResultLine(0, b));
}

} // namespace pri::sim

#endif // PRI_TESTS_EXPECT_IDENTICAL_HH
