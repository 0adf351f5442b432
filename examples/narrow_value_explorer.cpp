/**
 * @file
 * Example: explore the narrow-value opportunity of a workload
 * without running any timing simulation — the kind of study behind
 * the paper's Figure 2. Walks the functional instruction stream and
 * reports the operand-significance histogram, what fraction of
 * results each map-entry width would capture, and the FP triviality
 * breakdown.
 *
 * Usage: narrow_value_explorer [benchmark] [instructions]
 */

#include <cstdio>
#include <string>

#include "common/bitutils.hh"
#include "common/parse_number.hh"
#include "common/stats.hh"
#include "core/config.hh"
#include "workload/walker.hh"

int
main(int argc, char **argv)
{
    using namespace pri;
    const std::string bench = argc > 1 ? argv[1] : "gzip";
    const uint64_t insts = argc > 2
        ? parseFlagValue<uint64_t>("instructions", argv[2])
        : 200000;

    const auto &prof = workload::profileByName(bench);
    workload::SyntheticProgram prog(prof, 42);
    workload::Walker w(prog);

    StatDistribution widths(65);
    uint64_t fp = 0, fp_zero = 0;
    uint64_t ints = 0;
    for (uint64_t i = 0; i < insts; ++i) {
        auto wi = w.next();
        if (wi.isBranch())
            w.steer(wi, wi.taken, wi.actualTarget);
        if (!wi.hasDst())
            continue;
        if (wi.dst.cls == isa::RegClass::Int) {
            ++ints;
            widths.sample(significantBits(wi.resultValue));
        } else {
            ++fp;
            fp_zero += fpValueTrivial(wi.resultValue);
        }
    }

    std::printf("Narrow value explorer: %s (%llu insts)\n\n",
                bench.c_str(),
                static_cast<unsigned long long>(insts));

    std::printf("integer result significance histogram:\n");
    for (unsigned b = 1; b <= 64; ++b) {
        const uint64_t n = widths.bucket(b);
        if (n == 0)
            continue;
        const double frac = 100.0 * n / widths.count();
        if (frac < 0.5)
            continue;
        std::printf("  %2u bits %6.1f%% |", b, frac);
        for (int k = 0; k < static_cast<int>(frac); ++k)
            std::printf("#");
        std::printf("\n");
    }

    std::printf("\nmap-entry width -> fraction of integer results "
                "inlineable:\n");
    for (unsigned bits : {4u, 7u, 8u, 10u, 12u, 16u}) {
        std::printf("  %2u-bit entries: %5.1f%%", bits,
                    100.0 * widths.cdfAt(bits));
        for (const auto &machine : core::kMachineTable) {
            if (machine.narrowBits == bits)
                std::printf("   <- %u-wide machine model", machine.width);
        }
        std::printf("\n");
    }

    if (fp > 0) {
        std::printf("\nfloating point: %.1f%% of results are "
                    "all-zeroes/ones (inlineable)\n",
                    100.0 * fp_zero / fp);
    }
    std::printf("\nintegers: %llu results, FP: %llu results\n",
                static_cast<unsigned long long>(ints),
                static_cast<unsigned long long>(fp));
    return 0;
}
