/**
 * @file
 * Figure 12 reproduction: PRI speedup for the SPEC2000-fp-like
 * workloads (same scheme panel as Figure 10). The paper's FP
 * inlining rule only captures values that are entirely zeroes or
 * ones, which roughly half of all FP operands satisfy.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pri;
    return bench::runSpeedupFigure(
        "=== Figure 12: PRI speedup, floating point "
        "benchmarks ===\n(paper averages: PRI ref+ckpt "
        "+12.0% @4w / +25.2% @8w, PRI+ER "
        "+14.3%/+35.3%)\n\n",
        bench::fpBenchmarks(), bench::parseOptions(argc, argv));
}
