/**
 * @file
 * Child processes for pri_perf: every set-up, rep and traced pass
 * runs in a fresh copy of this binary, so each pays the process
 * start, program build and trace compile a user pays, and wait4()
 * reports its CPU time and peak RSS.
 */

#ifndef PRI_PERF_PROC_HH
#define PRI_PERF_PROC_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pri::perf
{

/** steady_clock (CLOCK_MONOTONIC) in ns: comparable across the
 *  parent and its children. */
int64_t nowNs();

/** One finished child: its exit, resource use and stdout lines. */
struct ChildRun
{
    bool ok = false;        ///< exited normally with status 0
    std::string how;        ///< exit description when !ok
    int64_t spawnNs = 0;    ///< nowNs() just before posix_spawn
    int64_t reapNs = 0;     ///< nowNs() just after wait4
    double cpuS = 0.0;      ///< user + system CPU seconds
    double maxRssMb = 0.0;  ///< ru_maxrss
    std::vector<std::string> lines;

    /** The rest of the first line "<key> <rest>", or "" if none. */
    std::string field(std::string_view key) const;
    double number(std::string_view key) const;
    /** Rest of every line starting with "<key> ". */
    std::vector<std::string> all(std::string_view key) const;
};

/**
 * Run this executable with @p args, stdout captured, every PRI_*
 * variable removed from its environment (so no escape hatch or test
 * hook alters what is measured), and wait for it to end.
 */
ChildRun runChild(const std::vector<std::string> &args);

/** Directory holding this executable. */
std::string selfDir();

/** In a child: die with the parent rather than outlive it. */
void dieWithParent();

} // namespace pri::perf

#endif // PRI_PERF_PROC_HH
