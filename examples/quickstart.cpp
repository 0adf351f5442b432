/**
 * @file
 * Quickstart: simulate one SPEC2000-like benchmark on the 4-wide
 * machine, with and without Physical Register Inlining, and print
 * the headline comparison.
 *
 * Usage: quickstart [benchmark] [width]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parse_number.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"

int
main(int argc, char **argv)
{
    using namespace pri;

    const std::string benchmark = argc > 1 ? argv[1] : "gzip";
    const unsigned width =
        argc > 2 ? parseFlagValue<unsigned>("width", argv[2]) : 4;

    std::printf("Physical Register Inlining quickstart\n");
    std::printf("benchmark=%s width=%u physRegs=64\n\n",
                benchmark.c_str(), width);

    sim::RunParams params;
    params.benchmark = benchmark;
    params.width = width;
    params.checkInvariants = true;

    // The three schemes are independent runs — dispatch them as one
    // batch through the parallel runner.
    std::vector<sim::RunParams> batch(3, params);
    batch[0].scheme = sim::Scheme::Base;
    batch[1].scheme = sim::Scheme::PriRefcountCkptcount;
    batch[2].scheme = sim::Scheme::InfinitePregs;
    const auto results = sim::SimulationRunner().run(batch);
    const auto &base = results[0];
    const auto &pri = results[1];
    const auto &inf = results[2];

    std::printf("%-26s %8s %10s %10s %9s\n", "scheme", "IPC",
                "occupancy", "phase3", "speedup");
    for (const auto *r : {&base, &pri, &inf}) {
        std::printf("%-26s %8.3f %10.1f %10.1f %8.2f%%\n",
                    r->scheme.c_str(), r->ipc, r->avgIntOccupancy,
                    r->lifeLastReadToRelease,
                    100.0 * (r->ipc / base.ipc - 1.0));
    }

    if (std::getenv("PRI_VERBOSE")) {
        std::printf("\n--- Base stats ---\n%s", base.report.c_str());
        std::printf("\n--- PRI stats ---\n%s", pri.report.c_str());
    }

    std::printf("\nphase3 = last-read -> release register lifetime "
                "(the phase PRI attacks)\n");
    std::printf("PRI inlined %.1f%% of results; %.1f early frees "
                "per 1k insts\n",
                100.0 * pri.inlinedFrac, pri.priEarlyFrees);
    return 0;
}
