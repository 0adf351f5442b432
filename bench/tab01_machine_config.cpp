/**
 * @file
 * Table 1 reproduction: print the machine configurations exactly as
 * the simulator instantiates them, so configuration drift between
 * the paper's table and the code is visible at a glance.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/config.hh"

namespace
{

void
show(const char *title, const pri::core::CoreConfig &c)
{
    std::printf("-- %s --\n", title);
    std::printf("  %u-wide fetch/issue/commit, %u ROB, %u LSQ, "
                "%u-entry scheduler\n",
                c.width, c.robSize, c.lsqSize, c.schedSize);
    std::printf("  %u INT + %u FP physical registers\n",
                c.rename.numPhysRegs, c.rename.numPhysRegs);
    std::printf("  speculative scheduling with selective replay; "
                "fetch stops at first taken branch\n");
    std::printf("  FUs: %u intALU, %u intMul/Div, %u fpALU, "
                "%u fpMul/Div, %u memPorts\n",
                c.numIntAlu, c.numIntMultDiv, c.numFpAlu,
                c.numFpMultDiv, c.numMemPorts);
    std::printf("  pipeline: Fetch Decode | Rename | Queue Sched | "
                "Disp Disp RF RF | Exe | Retire | Commit\n");
    const auto &m = c.mem;
    std::printf("  IL1 %lluKB %u-way %uB (%u cyc), DL1 %lluKB "
                "%u-way %uB (%u cyc),\n",
                static_cast<unsigned long long>(
                    m.il1.sizeBytes / 1024),
                m.il1.assoc, m.il1.lineBytes, m.il1.latency,
                static_cast<unsigned long long>(
                    m.dl1.sizeBytes / 1024),
                m.dl1.assoc, m.dl1.lineBytes, m.dl1.latency);
    std::printf("  L2 %lluKB %u-way %uB (%u cyc), memory %u cyc\n",
                static_cast<unsigned long long>(
                    m.l2.sizeBytes / 1024),
                m.l2.assoc, m.l2.lineBytes, m.l2.latency,
                m.memLatency);
    std::printf("  branch: bimodal(4k)+gshare(4k)+selector(4k), "
                "16-entry RAS, 1k 4-way BTB\n");
    std::printf("  PRI: integer values with %u or fewer significant "
                "bits inline into the map;\n"
                "       FP values inline only when all zeroes or "
                "ones\n\n",
                pri::core::CoreConfig::narrowBitsForWidth(c.width));
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
    const auto rn4 = pri::rename::RenameConfig::base(
        64, pri::core::CoreConfig::narrowBitsForWidth(4));
    const auto rn8 = pri::rename::RenameConfig::base(
        64, pri::core::CoreConfig::narrowBitsForWidth(8));
    show("4-wide (current generation)",
         pri::core::CoreConfig::fourWide(rn4));
    show("8-wide (future machine)",
         pri::core::CoreConfig::eightWide(rn8));
    return 0;
}
