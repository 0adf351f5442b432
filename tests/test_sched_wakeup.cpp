/**
 * @file
 * Pinned timing reference for the scheduler and branch recovery.
 *
 * Each config below asserts a literal FNV-1a digest of its full
 * result line, codec::formatResultLine(paramsHash(p), simulate(p)):
 * every persisted metric plus the complete stats report. The digests
 * were recorded while the simulator still carried its retired
 * reference implementations (the re-polling scheduler, copy-snapshot
 * checkpoints and the per-instance decode front end), and every
 * combination of those produced the same literal. They replace the
 * A/B equivalence suites: a change that moves any cycle of these
 * runs fails here. Update a literal only for a change that is meant
 * to alter timing, and say so in its commit message.
 *
 * The configs cover the consumer-list wakeup and the ideal-PRI
 * inline rewrite (which walks those lists), a squash-heavy scheduler,
 * checkpoint restores on the branchiest profile, and the read-port
 * arbiter at binding budgets.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "sim/result_codec.hh"
#include "sim/simulation.hh"

namespace pri::sim
{
namespace
{

/** FNV-1a over the run's result line. */
uint64_t
resultDigest(const RunParams &p)
{
    const std::string line =
        codec::formatResultLine(paramsHash(p), simulate(p));
    uint64_t h = 14695981039346656037ULL;
    for (const unsigned char c : line) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

RunParams
shortRun(const char *bench, Scheme scheme, uint64_t seed)
{
    RunParams p;
    p.benchmark = bench;
    p.scheme = scheme;
    p.warmupInsts = 2000;
    p.measureInsts = 8000;
    p.seed = seed;
    p.checkInvariants = true;
    return p;
}

/** Two benchmarks × schemes that exercise the refcount consumer
 *  bookkeeping and the ideal inline-rewrite hook. */
TEST(EventWakeup, ReportByteIdenticalAcrossSchemes)
{
    struct Pin
    {
        const char *bench;
        Scheme scheme;
        uint64_t digest;
    };
    const Pin pins[] = {
        {"gcc", Scheme::Base, 0x86c43e74d89beddbULL},
        {"gcc", Scheme::PriRefcountLazy, 0x02680d6f4f2a0610ULL},
        {"gcc", Scheme::PriIdealLazy, 0x3bdd64adf3bb4c2dULL},
        {"swim", Scheme::Base, 0x940c49b1110e5027ULL},
        {"swim", Scheme::PriRefcountLazy, 0x9ae684d4f87bbc5bULL},
        {"swim", Scheme::PriIdealLazy, 0x9d5f12b3304da19dULL},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(pin.bench) + " " +
                     schemeName(pin.scheme));
        EXPECT_EQ(resultDigest(shortRun(pin.bench, pin.scheme, 7)),
                  pin.digest);
    }
}

/** Checkpoint-recovery-heavy config: gcc is the most branch-dense
 *  profile, and a tight scheduler plus few physical registers makes
 *  mispredicted-path instructions pile up in the scheduler before
 *  every squash, exercising the eager squash-unwind of consumer
 *  lists, ready bits and pending wake buckets. */
TEST(EventWakeup, ReportByteIdenticalUnderSquashPressure)
{
    auto p = shortRun("gcc", Scheme::PriRefcountLazy, 11);
    p.width = 8;
    p.physRegs = 48;
    p.schedSizeOverride = 16;
    EXPECT_EQ(resultDigest(p), 0x80b884e85986d355ULL);
}

/** 30k instructions of gcc with no warmup: thousands of checkpoints
 *  taken and restored through the pool and its undo journals. */
TEST(TimingReference, CheckpointRecoveryMatchesPin)
{
    RunParams p;
    p.benchmark = "gcc";
    p.scheme = Scheme::PriRefcountCkptcount;
    p.warmupInsts = 0;
    p.measureInsts = 30000;
    p.seed = 17;
    p.checkInvariants = true;
    EXPECT_EQ(resultDigest(p), 0x5ee4c399ca1b5e51ULL);
}

/** Binding read-port budgets on the 8-wide machine: the arbiter
 *  grants in ROB-age order, so denials reorder issue. */
TEST(TimingReference, BindingPortBudgetMatchesPin)
{
    const std::pair<unsigned, uint64_t> pins[] = {
        {2, 0xa9b274781941f98dULL},
        {4, 0x1ff010e5b9f6f8bbULL},
    };
    for (const auto &[ports, digest] : pins) {
        SCOPED_TRACE("ports " + std::to_string(ports));
        auto p = shortRun("gcc", Scheme::PriRefcountCkptcount, 7);
        p.width = 8;
        p.prfReadPorts = ports;
        EXPECT_EQ(resultDigest(p), digest);
    }
}

} // namespace
} // namespace pri::sim
