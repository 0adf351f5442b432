/**
 * @file
 * Example: a register-pressure study in the style of the paper's §5
 * analysis. For one benchmark, sweep the physical-register-file size
 * and show how Base and PRI respond — illustrating the paper's core
 * claim that PRI is worth a significant fraction of additional
 * physical registers.
 *
 * Usage: register_pressure_study [benchmark] [width]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/parse_number.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"

int
main(int argc, char **argv)
{
    using namespace pri;
    const std::string bench = argc > 1 ? argv[1] : "gzip";
    const unsigned width =
        argc > 2 ? parseFlagValue<unsigned>("width", argv[2]) : 4;

    std::printf("Register pressure study: %s, %u-wide\n\n",
                bench.c_str(), width);
    std::printf("%6s %12s %12s %14s %12s\n", "PR", "IPC(Base)",
                "IPC(PRI)", "PRI speedup", "occ(Base)");

    sim::RunParams p;
    p.benchmark = bench;
    p.width = width;

    // Batch the whole (PR x {Base,PRI}) sweep through the runner.
    const unsigned sweep[] = {40, 48, 56, 64, 72, 80, 96, 128};
    const sim::SimulationRunner runner;
    std::vector<sim::RunParams> batch;
    for (unsigned pr : sweep) {
        p.physRegs = pr;
        p.scheme = sim::Scheme::Base;
        batch.push_back(p);
        p.scheme = sim::Scheme::PriRefcountCkptcount;
        batch.push_back(p);
    }
    const auto results = runner.run(batch);

    double pri64 = 0.0;
    for (size_t i = 0; i < std::size(sweep); ++i) {
        const auto &base = results[2 * i];
        const auto &pri = results[2 * i + 1];
        if (sweep[i] == 64)
            pri64 = pri.ipc;
        std::printf("%6u %12.3f %12.3f %13.1f%% %12.1f\n", sweep[i],
                    base.ipc, pri.ipc,
                    100.0 * (pri.ipc / base.ipc - 1.0),
                    base.avgIntOccupancy);
    }

    // How many base registers is PRI worth? Find the smallest Base
    // register file whose IPC matches PRI at 64. The candidates are
    // independent, so run the whole 64..160 search as one batch and
    // take the first match.
    std::printf("\nPRI at 64 registers achieves IPC %.3f — "
                "equivalent to a larger conventional file:\n",
                pri64);
    p.scheme = sim::Scheme::Base;
    std::vector<sim::RunParams> search;
    for (unsigned pr = 64; pr <= 160; pr += 8) {
        p.physRegs = pr;
        search.push_back(p);
    }
    const auto matches = runner.run(search);
    for (size_t i = 0; i < matches.size(); ++i) {
        if (matches[i].ipc >= pri64) {
            const unsigned pr = search[i].physRegs;
            std::printf("  Base needs ~%u registers per class to "
                        "match (PRI saves ~%u)\n",
                        pr, pr - 64);
            return 0;
        }
    }
    std::printf("  Base does not match PRI even at 160 registers\n");
    return 0;
}
