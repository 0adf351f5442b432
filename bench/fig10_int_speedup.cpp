/**
 * @file
 * Figure 10 reproduction: PRI speedup for the SPEC2000-integer-like
 * workloads, 4-wide and 8-wide, across the full scheme panel:
 * ER, PRI-refcount+ckptcount, PRI-refcount+lazy,
 * PRI-ideal+ckptcount, PRI-ideal+lazy, PRI+ER, and InfPR —
 * all as IPC speedup over the Base machine at 64+64 registers.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pri;
    return bench::runSpeedupFigure(
        "=== Figure 10: PRI speedup, integer benchmarks "
        "===\n(paper averages: ER +3.6%, PRI ref+ckpt "
        "+7.3% @4w / +14.8% @8w, PRI+ER +8.3%/+17.5%, "
        "InfPR +11%/+39%)\n\n",
        bench::intBenchmarks(), bench::parseOptions(argc, argv));
}
