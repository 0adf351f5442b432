/**
 * @file
 * Table 1 reproduction: print each row of core::kMachineTable with
 * the constants both machines share (core/config.hh,
 * memory/cache.hh) — the values every simulated core is built from
 * — so drift between the paper's table and the code is visible at a
 * glance.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/config.hh"
#include "memory/cache.hh"

namespace
{

unsigned long long
kilobytes(const pri::memory::CacheParams &c)
{
    return c.sizeBytes / 1024;
}

void
show(const pri::core::MachineRow &row, unsigned phys_regs)
{
    using namespace pri::core;
    using pri::memory::kDl1;
    using pri::memory::kIl1;
    using pri::memory::kL2;
    std::printf("-- %u-wide (%s) --\n", row.width, row.label);
    std::printf("  %u-wide fetch/issue/commit, %u ROB, %u LSQ, "
                "%u-entry scheduler\n",
                row.width, kRobSize, kLsqSize, row.schedSize);
    std::printf("  %u INT + %u FP physical registers\n", phys_regs,
                phys_regs);
    std::printf("  speculative scheduling with selective replay; "
                "fetch stops at first taken branch\n");
    std::printf("  FUs: %u intALU, %u intMul/Div, %u fpALU, "
                "%u fpMul/Div, %u memPorts\n",
                row.numIntAlu, row.numIntMultDiv, row.numFpAlu,
                row.numFpMultDiv, row.numMemPorts);
    std::printf("  pipeline: Fetch Decode | Rename | Queue Sched | "
                "Disp Disp RF RF | Exe | Retire | Commit\n");
    std::printf("  IL1 %lluKB %u-way %uB (%u cyc), DL1 %lluKB "
                "%u-way %uB (%u cyc),\n",
                kilobytes(kIl1), kIl1.assoc, kIl1.lineBytes,
                kIl1.latency, kilobytes(kDl1), kDl1.assoc,
                kDl1.lineBytes, kDl1.latency);
    std::printf("  L2 %lluKB %u-way %uB (%u cyc), memory %u cyc\n",
                kilobytes(kL2), kL2.assoc, kL2.lineBytes, kL2.latency,
                pri::memory::kMemLatency);
    std::printf("  branch: bimodal(4k)+gshare(4k)+selector(4k), "
                "16-entry RAS, 1k 4-way BTB\n");
    std::printf("  PRI: integer values with %u or fewer significant "
                "bits inline into the map;\n"
                "       FP values inline only when all zeroes or "
                "ones\n\n",
                row.narrowBits);
}

} // namespace

int
main(int argc, char **argv)
{
    // Prints configurations only: nothing to journal, time out or
    // write.
    pri::bench::parseOptions(
        argc, argv, {.json = false, .journal = false, .timeout = false});
    std::printf("=== Table 1: machine configurations ===\n\n");
    // Table 1's register count is the one RunParams defaults to.
    const unsigned phys_regs = pri::sim::RunParams{}.physRegs;
    for (const auto &row : pri::core::kMachineTable)
        show(row, phys_regs);
    return 0;
}
