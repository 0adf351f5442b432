#include "faults/campaign.hh"

#include <string>

#include "common/hashing.hh"
#include "golden/diff_checker.hh"

namespace pri::faults
{

FaultOutcome
classifyOutcome(const sim::SimulationRunner::Outcome &faulted,
                const sim::SimulationRunner::Outcome &ref)
{
    // Order matters: a wedge is a Hang although it, too, left error
    // text, and a golden panic is DetectedByGolden even though it,
    // too, is a panic.
    if (faulted.stalled)
        return FaultOutcome::Hang;
    if (!faulted.ok()) {
        if (faulted.error.find(golden::kDivergenceMarker) !=
            std::string::npos)
            return FaultOutcome::DetectedByGolden;
        return FaultOutcome::Crash;
    }
    // Clean finish: compare against the fault-free reference. If
    // the reference itself failed there is nothing to match, so a
    // clean faulted run counts as corruption (conservative).
    if (!ref.ok())
        return FaultOutcome::SilentDataCorruption;
    if (faulted.result.report == ref.result.report &&
        faulted.result.archSig == ref.result.archSig)
        return FaultOutcome::Masked;
    return FaultOutcome::SilentDataCorruption;
}

FaultSpec
drawInjection(FaultSite site, unsigned n, uint64_t campaignSeed,
              uint64_t drawRange)
{
    const auto siteKey = static_cast<uint64_t>(site);
    FaultSpec spec;
    spec.site = site;
    spec.mutation = static_cast<FaultMutation>(
        hashRange(3, campaignSeed, siteKey, 2 * n));
    spec.trigger = FaultTrigger::SeededDraw;
    spec.triggerArg = drawRange;
    spec.seed = hashCombine(campaignSeed, siteKey, 2 * n + 1);
    return spec;
}

} // namespace pri::faults
