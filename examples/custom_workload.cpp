/**
 * @file
 * Example: define a custom benchmark profile from scratch and run it
 * through the whole stack — the path a downstream user takes to
 * evaluate PRI on their own workload characteristics.
 *
 * The profile below models a hypothetical "sensor-fusion" kernel:
 * very narrow integer values (sensor readings), a small working
 * set, predictable loops, and moderate FP with many zero samples.
 */

#include <cstdio>
#include <tuple>
#include <vector>

#include "core/core.hh"
#include "sim/runner.hh"
#include "workload/program.hh"

int
main()
{
    using namespace pri;

    // 1. Describe the workload.
    workload::BenchmarkProfile prof;
    prof.name = "sensor_fusion";
    prof.suite = workload::Suite::Fp;
    prof.fracLoad = 0.30;
    prof.fracStore = 0.08;
    prof.fracBranch = 0.10;
    prof.fracFpAdd = 0.18;
    prof.fracFpMult = 0.12;
    // 12-bit ADC readings: almost everything fits in 12 bits.
    prof.widthPoints = {{1, 0.10}, {8, 0.55}, {12, 0.92},
                        {16, 0.97}, {64, 1.0}};
    prof.fpFracZero = 0.65; // sparse sensor frames
    prof.branchEasyFrac = 0.95;
    prof.workingSetBytes = 64 * 1024;
    prof.randomAccessFrac = 0.03;
    prof.depLocality = 0.15;
    prof.paperIpc4 = prof.paperIpc8 = 1.0; // no paper reference

    // 2. Build the synthetic program and two machine configurations.
    workload::SyntheticProgram program(prof, 2026);

    auto run = [&](const rename::RenameConfig &rc) {
        StatGroup stats;
        core::OutOfOrderCore cpu(core::CoreConfig::of(4, rc), program, stats);
        cpu.run(20000);             // warmup
        cpu.beginMeasurement();
        cpu.run(100000);            // measure
        cpu.checkInvariants();
        return std::tuple<double, double, double>(
            cpu.ipc(), cpu.avgIntOccupancy(), cpu.avgFpOccupancy());
    };

    // The two configurations are independent; fan them out across
    // the runner's thread pool (each run builds its own core).
    const rename::RenameConfig configs[] = {
        rename::RenameConfig::of(rename::Scheme::Base, 64, 7),
        rename::RenameConfig::of(rename::Scheme::PriRefcountCkptcount,
                                 64, 7),
    };
    std::vector<std::tuple<double, double, double>> out(2);
    sim::SimulationRunner().forEach(
        2, [&](size_t i) { out[i] = run(configs[i]); });
    const auto [base_ipc, base_iocc, base_focc] = out[0];
    const auto [pri_ipc, pri_iocc, pri_focc] = out[1];

    // 3. Report.
    std::printf("custom workload '%s' on the 4-wide machine:\n\n",
                prof.name.c_str());
    std::printf("%-8s %8s %10s %10s\n", "scheme", "IPC", "occ(INT)",
                "occ(FP)");
    std::printf("%-8s %8.3f %10.1f %10.1f\n", "Base", base_ipc,
                base_iocc, base_focc);
    std::printf("%-8s %8.3f %10.1f %10.1f\n", "PRI", pri_ipc,
                pri_iocc, pri_focc);
    std::printf("\nPRI speedup: %.1f%%\n",
                100.0 * (pri_ipc / base_ipc - 1.0));
    std::printf("A workload with 12-bit sensor values is a "
                "near-ideal PRI candidate.\n");
    return 0;
}
