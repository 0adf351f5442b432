/**
 * @file
 * The child side of pri_perf: one set-up, timed rep, traced pass or
 * walker probe per process, reported to the parent as text lines on
 * stdout ("<key> <value...>"; see child.cpp for the keys).
 */

#ifndef PRI_PERF_CHILD_HH
#define PRI_PERF_CHILD_HH

#include <cstdint>
#include <string>

#include "workloads.hh"

namespace pri::perf
{

struct ChildOptions
{
    /** setup | rep | traced | walker */
    std::string role;
    const WorkloadInfo *workload = nullptr;
    uint64_t seed = 1;
    unsigned scale = 1;
    /** Result journal (warm_rerun populate and passes). */
    std::string journal;
    /** rep: run tracedPoints() serially through sim::simulate(), the
     *  untraced twin of a traced pass. */
    bool serial = false;
    /** rep: also print one "point" line per result. */
    bool points = false;
    /** rep: run only this point of the workload (-1 = all). */
    long only = -1;
};

/** Run one child role; returns the process exit status. */
int childMain(const ChildOptions &opts);

} // namespace pri::perf

#endif // PRI_PERF_CHILD_HH
