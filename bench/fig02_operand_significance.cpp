/**
 * @file
 * Figure 2 reproduction: dynamic cumulative distribution of operand
 * significance. Top: bits needed to represent integer results for
 * the SPECint-like workloads. Bottom: fraction of FP operands whose
 * exponent/significand fields are all-zeroes-or-ones, and the
 * all-zero fraction that the paper's FP inlining rule exploits.
 *
 * This is a pure workload study (functional walk, no timing). Each
 * benchmark's walk is independent, so the rows are computed through
 * SimulationRunner::forEach and printed afterwards in table order.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "common/bitutils.hh"
#include "workload/walker.hh"

namespace
{

constexpr uint64_t kInsts = 300000;

struct FpRow
{
    double zero = 0.0;
    double expTrivial = 0.0;
    double sigTrivial = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace pri;
    // A functional walk: nothing to journal, time out or write.
    const auto opts = bench::parseOptions(
        argc, argv, {.json = false, .journal = false, .timeout = false});
    const sim::SimulationRunner runner(opts.jobs);

    std::printf("=== Figure 2: operand significance ===\n\n");
    std::printf("-- integer results: cumulative %% representable in "
                "<= N bits --\n");
    std::printf("%-10s", "bench");
    const unsigned cols[] = {1, 4, 7, 8, 10, 12, 16, 24, 32, 48, 64};
    for (unsigned c : cols)
        std::printf(" %5u", c);
    std::printf("\n");

    const auto int_profiles = workload::specIntProfiles();
    std::vector<StatDistribution> dists(int_profiles.size(),
                                        StatDistribution(65));
    runner.forEach(int_profiles.size(), [&](size_t i) {
        workload::SyntheticProgram prog(int_profiles[i], 42);
        workload::Walker w(prog);
        auto &dist = dists[i];
        for (uint64_t n = 0; n < kInsts; ++n) {
            auto wi = w.next();
            if (wi.isBranch())
                w.steer(wi, wi.taken, wi.actualTarget);
            if (wi.hasDst() && wi.dst.cls == isa::RegClass::Int)
                dist.sample(significantBits(wi.resultValue));
        }
    });
    for (size_t i = 0; i < int_profiles.size(); ++i) {
        std::printf("%-10s", int_profiles[i].name.c_str());
        for (unsigned c : cols)
            std::printf(" %5.1f", 100.0 * dists[i].cdfAt(c));
        std::printf("\n");
    }

    std::printf("\n-- floating point operands --\n");
    std::printf("%-10s %10s %12s %12s\n", "bench", "zero%",
                "expTrivial%", "sigTrivial%");
    const auto fp_profiles = workload::specFpProfiles();
    std::vector<FpRow> rows(fp_profiles.size());
    runner.forEach(fp_profiles.size(), [&](size_t i) {
        workload::SyntheticProgram prog(fp_profiles[i], 42);
        workload::Walker w(prog);
        uint64_t fp = 0, zero = 0, etriv = 0, striv = 0;
        for (uint64_t n = 0; n < kInsts; ++n) {
            auto wi = w.next();
            if (wi.isBranch())
                w.steer(wi, wi.taken, wi.actualTarget);
            if (wi.hasDst() && wi.dst.cls == isa::RegClass::Fp) {
                ++fp;
                zero += fpValueTrivial(wi.resultValue);
                etriv += fpExponentTrivial(wi.resultValue);
                striv += fpSignificandTrivial(wi.resultValue);
            }
        }
        rows[i] = FpRow{100.0 * zero / fp, 100.0 * etriv / fp,
                        100.0 * striv / fp};
    });
    double zsum = 0, esum = 0, ssum = 0;
    for (size_t i = 0; i < fp_profiles.size(); ++i) {
        std::printf("%-10s %10.1f %12.1f %12.1f\n",
                    fp_profiles[i].name.c_str(), rows[i].zero,
                    rows[i].expTrivial, rows[i].sigTrivial);
        zsum += rows[i].zero;
        esum += rows[i].expTrivial;
        ssum += rows[i].sigTrivial;
    }
    const double n = static_cast<double>(fp_profiles.size());
    std::printf("%-10s %10.1f %12.1f %12.1f\n", "mean", zsum / n,
                esum / n, ssum / n);
    std::printf("\npaper: ~50%% of FP operands contain only zeroes; "
                "~77%% trivial exponents; ~54%% trivial "
                "significands\n");
    return 0;
}
