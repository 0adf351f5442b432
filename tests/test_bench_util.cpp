/**
 * @file
 * Tests for the harnesses' shared result plumbing in
 * bench/bench_util.hh: the seed average behind every figure point,
 * and the --json sink that writes those points out.
 */

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace pri::bench
{
namespace
{

/** Three results in which every field differs, from field to field
 *  and from result to result. */
TEST(BenchUtil, AverageSumsCountsAndScalesRates)
{
    std::vector<sim::RunResult> rs(3);
    for (size_t k = 0; k < rs.size(); ++k) {
        rs[k].benchmark = "bench" + std::to_string(k);
        rs[k].scheme = sim::schemeName(sim::kAllSchemes[k]);
        rs[k].width = 4 + static_cast<unsigned>(k);
        rs[k].archSig = 0x1234 + k;
        rs[k].report = "report " + std::to_string(k);
        uint64_t n = 1000 * (k + 1);
        for (const auto &field : sim::kResultCounts)
            rs[k].*field.member = n++;
        double x = 0.1 + static_cast<double>(k);
        for (const auto &field : sim::kResultRates)
            rs[k].*field.member = x += 1.0 / 7.0;
    }
    const auto avg = detail::averageResults(rs);

    for (const auto &field : sim::kResultCounts) {
        EXPECT_EQ(avg.*field.member, rs[0].*field.member +
                                         rs[1].*field.member +
                                         rs[2].*field.member)
            << field.name;
    }
    for (const auto &field : sim::kResultRates) {
        const double want = (rs[0].*field.member + rs[1].*field.member +
                             rs[2].*field.member) *
            (1.0 / 3.0);
        EXPECT_EQ(std::bit_cast<uint64_t>(avg.*field.member),
                  std::bit_cast<uint64_t>(want))
            << field.name;
    }
    EXPECT_EQ(avg.benchmark, rs[0].benchmark);
    EXPECT_EQ(avg.scheme, rs[0].scheme);
    EXPECT_EQ(avg.width, rs[0].width);
    EXPECT_EQ(avg.archSig, rs[0].archSig);
    EXPECT_EQ(avg.report, rs[0].report);
}

/** @p v, which std::from_chars must read whole. */
template <class T>
T
readNumber(const std::string &v)
{
    T x{};
    const auto res = std::from_chars(v.data(), v.data() + v.size(), x);
    EXPECT_EQ(res.ptr, v.data() + v.size()) << v;
    return x;
}

/** Two prefetched points through writeJson: the file is exactly
 *  {"points": [...]} with one record per line, each record names
 *  its grid coordinates and then every table field once, in table
 *  order, and every value reads back to the cached one exactly. */
TEST(BenchUtil, JsonSinkWritesEveryTableField)
{
    Options opts;
    opts.budget = Budget{1000, 4000};
    opts.jobs = 2;
    opts.jsonPath = testing::TempDir() + "pri_test_bench_util.json";
    const std::vector<Point> points = {
        {"gzip", 4, sim::Scheme::Base},
        {"equake", 8, sim::Scheme::PriRefcountCkptcount},
    };
    prefetchPoints(points, opts);
    writeJson(opts);

    std::stringstream text;
    text << std::ifstream(opts.jsonPath).rdbuf();
    std::remove(opts.jsonPath.c_str());
    std::string line;
    ASSERT_TRUE(std::getline(text, line) && line == "{");
    ASSERT_TRUE(std::getline(text, line) && line == "\"points\": [");

    std::vector<std::string> want = {"benchmark", "scheme", "width",
                                     "pregs", "readPorts", "warmup",
                                     "measure"};
    const size_t coords = want.size();
    for (const auto &field : sim::kResultCounts)
        want.push_back(field.name);
    for (const auto &field : sim::kResultRates)
        want.push_back(field.name);

    for (size_t i = 0; i < points.size(); ++i) {
        ASSERT_TRUE(std::getline(text, line));
        SCOPED_TRACE(line);
        const std::string end = i + 1 < points.size() ? "}," : "}";
        ASSERT_TRUE(line.starts_with("  {") && line.ends_with(end));
        // `"name": value` pairs; no value holds a comma.
        std::istringstream record(
            line.substr(3, line.size() - 3 - end.size()));
        std::vector<std::string> names, values;
        for (std::string kv; std::getline(record, kv, ',');) {
            const size_t open = kv.find('"') + 1;
            const size_t close = kv.find("\": ", open);
            ASSERT_NE(close, std::string::npos) << kv;
            names.push_back(kv.substr(open, close - open));
            values.push_back(kv.substr(close + 3));
        }
        ASSERT_EQ(names, want);
        EXPECT_EQ(values[0], '"' + points[i].bench + '"');

        const auto &r = runOne(points[i].bench, points[i].width,
                               points[i].scheme, opts.budget);
        size_t at = coords;
        for (const auto &field : sim::kResultCounts) {
            EXPECT_EQ(readNumber<uint64_t>(values[at++]), r.*field.member)
                << field.name;
        }
        for (const auto &field : sim::kResultRates) {
            EXPECT_EQ(std::bit_cast<uint64_t>(
                          readNumber<double>(values[at++])),
                      std::bit_cast<uint64_t>(r.*field.member))
                << field.name;
        }
    }
    ASSERT_TRUE(std::getline(text, line) && line == "]");
    ASSERT_TRUE(std::getline(text, line) && line == "}");
    EXPECT_FALSE(std::getline(text, line)) << "after the points: " << line;
}

} // namespace
} // namespace pri::bench
