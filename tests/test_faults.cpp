/**
 * @file
 * Transient-fault framework tests: the shared --inject-fault
 * grammar, one exact-classification test per FaultOutcome class,
 * classifyOutcome's decision table, campaign totality (a crashed or
 * hung injection is a counted outcome, never an abort), and
 * injection determinism.
 *
 * The per-class tests pin their injection via the same pure
 * drawInjection() function the campaign driver uses and search a
 * small bounded window of draws for the wanted class — timing
 * details may move as the core evolves, but the class must stay
 * reachable within the window or the framework has lost that
 * failure mode.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "faults/campaign.hh"
#include "faults/campaign_runner.hh"
#include "faults/fault_arg.hh"
#include "golden/diff_checker.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"

namespace pri
{
namespace
{

using faults::FaultMutation;
using faults::FaultOutcome;
using faults::FaultSite;
using faults::FaultSpec;
using faults::FaultTrigger;
using Outcome = sim::SimulationRunner::Outcome;

// ---- shared --inject-fault grammar (fault_arg) ----

TEST(FaultArg, ParsesLegacyKindsAndPoint)
{
    faults::FaultArg a;
    std::string err;
    ASSERT_TRUE(faults::parseFaultArg("wedge", a, err));
    EXPECT_EQ(a.legacy, core::InjectedFault::WedgeScheduler);
    EXPECT_EQ(a.point, -1);
    EXPECT_FALSE(a.spec.enabled());

    ASSERT_TRUE(faults::parseFaultArg("wrong-path@3", a, err));
    EXPECT_EQ(a.legacy, core::InjectedFault::CommitWrongPath);
    EXPECT_EQ(a.point, 3);
}

TEST(FaultArg, ParsesFaultSpecGrammar)
{
    faults::FaultArg a;
    std::string err;
    ASSERT_TRUE(
        faults::parseFaultArg("map:flip:cycle=5000", a, err));
    EXPECT_EQ(a.spec.site, FaultSite::MapTable);
    EXPECT_EQ(a.spec.mutation, FaultMutation::BitFlip);
    EXPECT_EQ(a.spec.trigger, FaultTrigger::AtCycle);
    EXPECT_EQ(a.spec.triggerArg, 5000u);
    EXPECT_EQ(a.spec.seed, 0u);
    EXPECT_EQ(a.point, -1);

    ASSERT_TRUE(faults::parseFaultArg(
        "prf:zero:access=10:seed=7@3", a, err));
    EXPECT_EQ(a.spec.site, FaultSite::PrfValue);
    EXPECT_EQ(a.spec.mutation, FaultMutation::ZeroEntry);
    EXPECT_EQ(a.spec.trigger, FaultTrigger::NthAccess);
    EXPECT_EQ(a.spec.triggerArg, 10u);
    EXPECT_EQ(a.spec.seed, 7u);
    EXPECT_EQ(a.point, 3);
}

TEST(FaultArg, FormatRoundTrips)
{
    faults::FaultArg a;
    std::string err;
    for (const char *text :
         {"lsq:stale:draw=9000", "wake:zero:cycle=123:seed=9",
          "freelist:flip:access=1", "ckpt:flip:draw=5:seed=2"}) {
        ASSERT_TRUE(faults::parseFaultArg(text, a, err)) << text;
        EXPECT_EQ(faults::formatFaultSpec(a.spec), text);
    }
}

TEST(FaultArg, RejectsUnknownKindListingValidOnes)
{
    faults::FaultArg a;
    std::string err;
    EXPECT_FALSE(faults::parseFaultArg("gremlin", a, err));
    // The error must teach the valid grammar, not just refuse.
    EXPECT_NE(err.find("valid kinds"), std::string::npos) << err;
    EXPECT_NE(err.find("wedge"), std::string::npos) << err;
    EXPECT_NE(err.find("prf|map|freelist|wake|ckpt|lsq"),
              std::string::npos)
        << err;

    EXPECT_FALSE(faults::parseFaultArg("map:gnaw:cycle=5", a, err));
    EXPECT_FALSE(faults::parseFaultArg("map:flip:when=5", a, err));
    EXPECT_FALSE(faults::parseFaultArg("", a, err));
}

// ---- one exact classification per outcome class ----

sim::RunParams
campaignPoint(sim::Scheme scheme, bool golden)
{
    sim::RunParams p;
    p.benchmark = "gap";
    p.width = 4;
    p.scheme = scheme;
    p.physRegs = 64;
    p.warmupInsts = 2000;
    p.measureInsts = 8000;
    p.checkGolden = golden;
    return p;
}

Outcome
runPoint(const sim::RunParams &p)
{
    sim::SimulationRunner runner(1);
    return runner.runCaptured({p})[0];
}

/** Fault-free anchors, computed once per (scheme, golden). */
const Outcome &
reference(sim::Scheme scheme, bool golden)
{
    static std::map<std::pair<int, bool>, Outcome> cache;
    auto key = std::make_pair(static_cast<int>(scheme), golden);
    auto it = cache.find(key);
    if (it == cache.end()) {
        it = cache.emplace(key, runPoint(campaignPoint(scheme,
                                                       golden)))
                 .first;
    }
    return it->second;
}

/**
 * Search the first kSearchWindow seeded draws on @p site for an
 * injection classified as @p want; returns its outcome. The window
 * is the regression budget: if a class stops being reachable here,
 * the corresponding vulnerability has silently vanished from the
 * framework.
 */
constexpr unsigned kSearchWindow = 24;

std::optional<Outcome>
findOutcome(sim::Scheme scheme, FaultSite site, bool golden,
            FaultOutcome want)
{
    const Outcome &ref = reference(scheme, golden);
    for (unsigned n = 0; n < kSearchWindow; ++n) {
        sim::RunParams p = campaignPoint(scheme, golden);
        p.faultSpec = faults::drawInjection(site, n, 0xfa17u,
                                            p.warmupInsts +
                                                p.measureInsts);
        Outcome o = runPoint(p);
        if (faults::classifyOutcome(o, ref) == want)
            return o;
    }
    return std::nullopt;
}

TEST(FaultOutcomes, MaskedStrikeBeyondHorizonIsExactlyMasked)
{
    const auto scheme = sim::Scheme::PriRefcountCkptcount;
    const Outcome &ref = reference(scheme, true);
    sim::RunParams p = campaignPoint(scheme, true);
    p.faultSpec.site = FaultSite::PrfValue;
    p.faultSpec.mutation = FaultMutation::BitFlip;
    p.faultSpec.trigger = FaultTrigger::AtCycle;
    p.faultSpec.triggerArg = uint64_t{1} << 40; // never reached
    const Outcome o = runPoint(p);
    ASSERT_TRUE(o.ok()) << o.error;
    EXPECT_EQ(faults::classifyOutcome(o, ref),
              FaultOutcome::Masked);
    // Masked means bit-identical architecture: signature AND report.
    EXPECT_EQ(o.result.archSig, ref.result.archSig);
    EXPECT_EQ(o.result.report, ref.result.report);
}

TEST(FaultOutcomes, GoldenDetectsMapOrPrfCorruption)
{
    const auto o = findOutcome(sim::Scheme::PriPlusEr,
                               FaultSite::PrfValue, true,
                               FaultOutcome::DetectedByGolden);
    ASSERT_TRUE(o.has_value())
        << "no golden-detected PRF strike in the search window";
    EXPECT_FALSE(o->ok());
    EXPECT_FALSE(o->stalled);
    // Detection IS the divergence marker; and the captured error
    // carries the flight-recorder trace for post-hoc diagnosis.
    EXPECT_NE(o->error.find(golden::kDivergenceMarker),
              std::string::npos)
        << o->error;
    EXPECT_NE(o->error.find("flight recorder"), std::string::npos)
        << o->error;
}

TEST(FaultOutcomes, LsqStrikeIsSilentDataCorruptionWithGoldenOff)
{
    // Store-address corruption is timing-only in the oracle memory
    // model: nothing panics, the golden checker has nothing to
    // compare addresses against — only the report/archSig diff
    // catches it. The canonical SDC.
    const auto o = findOutcome(sim::Scheme::PriPlusEr,
                               FaultSite::LsqForward, false,
                               FaultOutcome::SilentDataCorruption);
    ASSERT_TRUE(o.has_value())
        << "no SDC LSQ strike in the search window";
    EXPECT_TRUE(o->ok()) << o->error; // silent: the run "succeeded"
    EXPECT_NE(o->result.report,
              reference(sim::Scheme::PriPlusEr, false)
                  .result.report);
}

TEST(FaultOutcomes, WedgeIsExactlyHangWithFlightDump)
{
    const auto scheme = sim::Scheme::PriRefcountCkptcount;
    const Outcome &ref = reference(scheme, true);
    sim::RunParams p = campaignPoint(scheme, true);
    p.injectFault = core::InjectedFault::WedgeScheduler;
    const Outcome o = runPoint(p);
    ASSERT_FALSE(o.ok());
    EXPECT_TRUE(o.stalled);
    EXPECT_EQ(faults::classifyOutcome(o, ref), FaultOutcome::Hang);
    EXPECT_NE(o.error.find("watchdog"), std::string::npos)
        << o.error;
    EXPECT_NE(o.error.find("flight recorder"), std::string::npos)
        << o.error;
}

TEST(FaultOutcomes, FreeListCorruptionCrashesWithFlightDump)
{
    const auto o = findOutcome(sim::Scheme::PriRefcountCkptcount,
                               FaultSite::FreeList, true,
                               FaultOutcome::Crash);
    ASSERT_TRUE(o.has_value())
        << "no crashing free-list strike in the search window";
    EXPECT_FALSE(o->ok());
    EXPECT_FALSE(o->stalled);
    EXPECT_EQ(o->error.find(golden::kDivergenceMarker),
              std::string::npos)
        << o->error;
    EXPECT_NE(o->error.find("panic"), std::string::npos) << o->error;
    EXPECT_NE(o->error.find("flight recorder"), std::string::npos)
        << o->error;
}

// ---- classifyOutcome decision table (pure unit test) ----

TEST(ClassifyOutcome, DecisionTableIsTotalAndOrdered)
{
    Outcome ref;
    ref.result.report = "R";
    ref.result.archSig = 7;

    Outcome o = ref;
    EXPECT_EQ(faults::classifyOutcome(o, ref),
              FaultOutcome::Masked);

    o = ref;
    o.result.archSig = 8;
    EXPECT_EQ(faults::classifyOutcome(o, ref),
              FaultOutcome::SilentDataCorruption);

    o = ref;
    o.result.report = "R'";
    EXPECT_EQ(faults::classifyOutcome(o, ref),
              FaultOutcome::SilentDataCorruption);

    o = Outcome{};
    o.error = std::string("panic: ") + golden::kDivergenceMarker +
        " at commit 5";
    EXPECT_EQ(faults::classifyOutcome(o, ref),
              FaultOutcome::DetectedByGolden);

    o = Outcome{};
    o.error = "panic: something else entirely";
    EXPECT_EQ(faults::classifyOutcome(o, ref), FaultOutcome::Crash);

    // Hang outranks everything: a stalled run's error text may
    // mention anything.
    o = Outcome{};
    o.error = std::string("watchdog: ") + golden::kDivergenceMarker;
    o.stalled = true;
    EXPECT_EQ(faults::classifyOutcome(o, ref), FaultOutcome::Hang);

    // Broken reference: nothing comparable, conservatively SDC.
    Outcome bad_ref;
    bad_ref.error = "reference died";
    o = Outcome{};
    o.result.report = "R";
    EXPECT_EQ(faults::classifyOutcome(o, bad_ref),
              FaultOutcome::SilentDataCorruption);
}

// ---- campaign totality and determinism ----

TEST(Campaign, EveryInjectionClassifiedNoAborts)
{
    faults::CampaignSpec spec;
    spec.schemes = {sim::Scheme::Base,
                    sim::Scheme::PriRefcountCkptcount};
    spec.injections = 3;
    spec.campaignSeed = 2;
    faults::CampaignExec exec;
    exec.jobs = 2;
    const auto table = faults::runCampaign(spec, exec);

    ASSERT_EQ(table.refs.size(), 2u);
    for (const auto &r : table.refs)
        EXPECT_TRUE(r.ok()) << r.error;
    // Totality: schemes x sites x injections outcomes, all counted.
    uint64_t total = 0;
    for (const auto &c : table.counts)
        total += c.total();
    EXPECT_EQ(total, 2u * table.sites.size() * spec.injections);
}

TEST(Campaign, InjectionRunsAreDeterministic)
{
    sim::RunParams p =
        campaignPoint(sim::Scheme::PriRefcountCkptcount, true);
    p.faultSpec = faults::drawInjection(FaultSite::MapTable, 1,
                                        0xfa17u, 10000);
    const Outcome a = runPoint(p);
    const Outcome b = runPoint(p);
    EXPECT_EQ(a.ok(), b.ok());
    EXPECT_EQ(a.stalled, b.stalled);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.result.report, b.result.report);
    EXPECT_EQ(a.result.archSig, b.result.archSig);
}

TEST(Campaign, ParamsHashSeparatesFaultSpecs)
{
    sim::RunParams a =
        campaignPoint(sim::Scheme::PriRefcountCkptcount, true);
    sim::RunParams b = a;
    b.faultSpec = faults::drawInjection(FaultSite::MapTable, 0,
                                        0xfa17u, 10000);
    sim::RunParams c = b;
    c.faultSpec.seed ^= 1;
    EXPECT_NE(sim::paramsHash(a), sim::paramsHash(b));
    EXPECT_NE(sim::paramsHash(b), sim::paramsHash(c));
}

} // namespace
} // namespace pri
