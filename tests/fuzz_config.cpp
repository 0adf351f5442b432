/**
 * @file
 * Configuration fuzzer: randomized CoreConfig × workload points,
 * every run diff-checked against the golden model.
 *
 * Points are drawn with the repo's counter-based hash RNG, so a
 * given (PRI_FUZZ_SEED, index) pair always denotes the same
 * configuration — a CI failure log names the seed and index, and
 *
 *   PRI_FUZZ_SEED=<seed> PRI_FUZZ_RUNS=<index+1> ./fuzz_config
 *
 * replays it locally (see EXPERIMENTS.md). PRI_FUZZ_RUNS defaults
 * small for developer runs; CI raises it (32 under UBSan).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/hashing.hh"
#include "faults/campaign.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"

namespace pri
{
namespace
{

uint64_t
envOr(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

/** Deterministically expand (seed, index) into one config point. */
sim::RunParams
drawPoint(uint64_t seed, uint64_t index)
{
    // One salt per axis: axes stay independent, and adding an axis
    // never reshuffles the others. Salts 7, 9 and 13 are retired
    // (they drew the checkpoint, wakeup and front-end implementation
    // switches), and so are 10 (the watchdog's off switch) and 11
    // and 12 (a retry policy's attempt budget and planted transient
    // failures); never reuse them, or old seed/index replays would
    // silently denote different points.
    auto pick = [&](uint64_t salt, uint64_t bound) {
        return hashCombine(seed, index, salt) % bound;
    };

    static const char *kBenches[] = {"gzip",   "gcc",  "mcf",
                                     "crafty", "parser", "bzip2",
                                     "art",    "swim", "wupwise"};
    const auto &kSchemes = rename::kSchemeTable; // all ten
    static const unsigned kPregs[] = {48, 64, 96, 128};
    static const unsigned kSched[] = {16, 32, 64};
    static const unsigned kNarrowBits[] = {4, 7, 10, 12};
    // Read-port budgets, unlimited twice so half the draws keep the
    // classic machine (0 = no arbiter at all).
    static const unsigned kPorts[] = {0, 0, 2, 3, 4, 8};

    sim::RunParams p;
    p.benchmark = kBenches[pick(1, std::size(kBenches))];
    p.width = pick(2, 2) ? 8 : 4;
    p.scheme = kSchemes[pick(3, std::size(kSchemes))].scheme;
    p.physRegs = kPregs[pick(4, std::size(kPregs))];
    p.schedSizeOverride = kSched[pick(5, std::size(kSched))];
    p.narrowBitsOverride =
        kNarrowBits[pick(6, std::size(kNarrowBits))];
    p.seed = hashCombine(seed, index, 8);
    // The cycle budget turns any wedge the fuzzer ever finds into a
    // structured per-point failure instead of a hung CI job. (Salts
    // 16/17 belong to the fault-campaign axis; salts 10 and 14 are
    // retired.)
    // Read-port arbitration axis: a binding budget reorders issue,
    // so every limited draw cross-checks the arbitrated machine
    // against the golden model.
    p.prfReadPorts = kPorts[pick(15, std::size(kPorts))];
    p.cycleBudget = 2'000'000;
    p.warmupInsts = 2000;
    p.measureInsts = 8000;
    p.checkInvariants = true;
    p.checkGolden = true;
    return p;
}

TEST(ConfigFuzz, RandomConfigsStayGoldenClean)
{
    const uint64_t seed = envOr("PRI_FUZZ_SEED", 1);
    const uint64_t runs = envOr("PRI_FUZZ_RUNS", 6);
    for (uint64_t i = 0; i < runs; ++i) {
        const auto p = drawPoint(seed, i);
        SCOPED_TRACE("PRI_FUZZ_SEED=" + std::to_string(seed) +
                     " index=" + std::to_string(i) + ": " +
                     p.benchmark + " w" + std::to_string(p.width) +
                     " " + sim::schemeName(p.scheme) + " pregs " +
                     std::to_string(p.physRegs) + " sched " +
                     std::to_string(p.schedSizeOverride) +
                     " narrow " +
                     std::to_string(p.narrowBitsOverride) +
                     " ports " +
                     std::to_string(p.prfReadPorts));
        const auto r = sim::simulate(p);
        EXPECT_EQ(r.goldenChecked, r.committedTotal);
        EXPECT_GE(r.goldenChecked,
                  p.warmupInsts + p.measureInsts);
    }
}

/**
 * Same grid through the fault-tolerant runner: every point must come
 * back ok, golden-clean, and bit-identical to a direct simulate().
 */
TEST(ConfigFuzz, RunnerMatchesDirectGoldenClean)
{
    const uint64_t seed = envOr("PRI_FUZZ_SEED", 1);
    const uint64_t runs = envOr("PRI_FUZZ_RUNS", 6);
    for (uint64_t i = 0; i < runs; ++i) {
        const auto p = drawPoint(seed, i);
        SCOPED_TRACE("PRI_FUZZ_SEED=" + std::to_string(seed) +
                     " index=" + std::to_string(i) + ": " +
                     p.benchmark);

        const auto outcomes = sim::SimulationRunner(1).runCaptured({p});
        ASSERT_EQ(outcomes.size(), 1u);
        ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error;

        const auto &r = outcomes[0].result;
        EXPECT_EQ(r.goldenChecked, r.committedTotal);
        EXPECT_EQ(r.report, sim::simulate(p).report);
    }
}

/**
 * Fault-campaign axis: every fuzzed config point additionally takes
 * one seeded transient strike (site, mutation, trigger all drawn
 * from salts 16/17 — disjoint from the config axes above) through
 * the capture-not-fatal runner. The contract under test is campaign
 * totality, at fuzz breadth: whatever the machine does with the
 * corruption — masks it, panics, diverges from golden, or wedges —
 * classifyOutcome() sorts it into exactly one defined bucket and the
 * sweep itself never aborts. The reference leg of each pair must
 * stay golden-clean (the fuzzer's usual guarantee).
 */
TEST(ConfigFuzz, FaultCampaignClassifiesEveryStrike)
{
    const uint64_t seed = envOr("PRI_FUZZ_SEED", 1);
    const uint64_t runs = envOr("PRI_FUZZ_RUNS", 6);
    faults::OutcomeCounts counts;
    for (uint64_t i = 0; i < runs; ++i) {
        auto p = drawPoint(seed, i);
        const auto pick = [&](uint64_t salt, uint64_t bound) {
            return hashCombine(seed, i, salt) % bound;
        };
        const auto site = faults::kAllFaultSites[pick(
            16, std::size(faults::kAllFaultSites))];
        p.faultSpec = faults::drawInjection(
            site, static_cast<unsigned>(i),
            hashCombine(seed, i, 17),
            p.warmupInsts + p.measureInsts);
        SCOPED_TRACE("PRI_FUZZ_SEED=" + std::to_string(seed) +
                     " index=" + std::to_string(i) + ": " +
                     p.benchmark + " " +
                     sim::schemeName(p.scheme) + " strike " +
                     faults::siteName(site) + ":" +
                     faults::mutationName(p.faultSpec.mutation) +
                     " seed " + std::to_string(p.faultSpec.seed));

        auto ref_params = p;
        ref_params.faultSpec = faults::FaultSpec{};
        sim::SimulationRunner runner(1);
        const auto outcomes =
            runner.runCaptured({ref_params, p});
        ASSERT_EQ(outcomes.size(), 2u);
        // The fault-free leg keeps the fuzzer's baseline guarantee.
        ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error;
        EXPECT_EQ(outcomes[0].result.goldenChecked,
                  outcomes[0].result.committedTotal);
        // The struck leg lands in exactly one defined bucket — a
        // crash or hang is a classified outcome, never an abort.
        const auto outcome =
            faults::classifyOutcome(outcomes[1], outcomes[0]);
        ASSERT_LT(static_cast<size_t>(outcome),
                  faults::kNumFaultOutcomes);
        counts.add(outcome);
    }
    EXPECT_EQ(counts.total(), runs);
}

} // namespace
} // namespace pri
