/**
 * @file
 * Ablation (paper §6 future work): software dead-value hints. The
 * paper observes that PRI enables a binary-compatible way for the
 * compiler to communicate register deadness: insert a
 * load-immediate of a narrow value into a dead register, and the
 * hardware frees the corresponding physical register by inlining
 * the value into the map.
 *
 * Sweep the hint density on wide-value benchmarks (where plain PRI
 * has little to inline) and show that hints recover register-file
 * headroom — but only when PRI is present to exploit them.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/core.hh"
#include "workload/program.hh"

namespace
{

double
runHints(const std::string &bench, double hint_frac, bool pri_on,
         const pri::bench::Budget &budget)
{
    using namespace pri;
    double ipc_sum = 0.0;
    for (uint64_t seed : bench::kSeeds) {
        // Profile copy must outlive the program (held by reference).
        workload::BenchmarkProfile prof =
            workload::profileByName(bench);
        prof.deadHintFrac = hint_frac;
        workload::SyntheticProgram prog(prof, seed);
        const auto rc = rename::RenameConfig::of(
            pri_on ? rename::Scheme::PriRefcountCkptcount
                   : rename::Scheme::Base,
            64, 7);
        StatGroup stats;
        core::OutOfOrderCore cpu(core::CoreConfig::fourWide(rc),
                                 prog, stats);
        cpu.run(budget.warmup);
        cpu.beginMeasurement();
        cpu.run(budget.measure);
        ipc_sum += cpu.ipc();
    }
    return ipc_sum / std::size(pri::bench::kSeeds);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pri;
    // Each cell drives its own core outside the sweep runner: no
    // results for --json, no journal key, no per-run wall budget.
    const auto opts = bench::parseOptions(
        argc, argv, {.json = false, .journal = false, .timeout = false});
    const auto &budget = opts.budget;
    const double densities[] = {0.0, 0.25, 0.5, 1.0};
    const std::string benches[] = {"crafty", "eon", "vortex"};

    std::printf("=== Ablation: software dead-value hints x PRI "
                "(4-wide, 64 PR) ===\n");
    std::printf("(hint density = probability a basic block ends "
                "with a dead-register zeroing)\n\n");

    // Flatten (bench x density x {off,on}) into runner jobs; the
    // tables print in order afterwards.
    const size_t n_cells =
        std::size(benches) * std::size(densities);
    std::vector<double> off_ipc(n_cells), on_ipc(n_cells);
    sim::SimulationRunner(opts.jobs).forEach(
        n_cells * 2, [&](size_t i) {
            const size_t cell = i / 2;
            const auto &b = benches[cell / std::size(densities)];
            const double d = densities[cell % std::size(densities)];
            if (i % 2 == 0)
                off_ipc[cell] = runHints(b, d, false, budget);
            else
                on_ipc[cell] = runHints(b, d, true, budget);
        });

    for (size_t bi = 0; bi < std::size(benches); ++bi) {
        std::printf("%s\n%10s %12s %12s %14s\n",
                    benches[bi].c_str(), "density", "IPC(noPRI)",
                    "IPC(PRI)", "PRI speedup");
        for (size_t di = 0; di < std::size(densities); ++di) {
            const size_t cell = bi * std::size(densities) + di;
            const double off = off_ipc[cell];
            const double on = on_ipc[cell];
            std::printf("%10.2f %12.3f %12.3f %13.1f%%\n",
                        densities[di], off, on,
                        100.0 * (on / off - 1.0));
        }
        std::printf("\n");
    }
    std::printf("expected shape: without PRI the hints are pure "
                "overhead; with PRI, higher densities free dead "
                "registers earlier and the speedup grows on "
                "wide-value codes\n");
    return 0;
}
