/**
 * @file
 * Fault-campaign planning and outcome classification.
 *
 * A campaign is N seeded injections per (config point × fault
 * site): each injection is an ordinary RunParams with a FaultSpec
 * attached, executed through whatever path the harness already uses
 * (SimulationRunner, journal) — the campaign layer
 * only *plans* the specs and *classifies* the per-point Outcomes
 * afterwards. Determinism therefore comes for free: the spec is
 * audited by paramsHash and every trigger is counter-based, so a
 * campaign table is byte-identical across --jobs, journal resume
 * and warm journal reruns (DESIGN.md §17).
 */

#ifndef PRI_FAULTS_CAMPAIGN_HH
#define PRI_FAULTS_CAMPAIGN_HH

#include <array>
#include <cstdint>

#include "faults/fault_spec.hh"
#include "sim/runner.hh"

namespace pri::faults
{

/**
 * What one injection did to the run. Every injection lands in
 * exactly one class — there is no "unclassified".
 */
enum class FaultOutcome : uint8_t
{
    /** Run finished and both the stat report and the committed-
     *  stream architectural signature match the fault-free
     *  reference: the strike was logically or temporally masked. */
    Masked = 0,
    /** The golden-model diff checker caught the corruption (panic
     *  whose text carries golden::kDivergenceMarker). */
    DetectedByGolden,
    /** Run finished "cleanly" but the report or architectural
     *  signature differs from the fault-free reference: silent
     *  data corruption that escaped every check. */
    SilentDataCorruption,
    /** The forward-progress watchdog raised ProgressStall
     *  (Outcome.stalled) — the machine wedged. */
    Hang,
    /** Any other panic/assert/signal/worker death; the flight-
     *  recorder dump rides in Outcome.error. */
    Crash,
};

constexpr unsigned kNumFaultOutcomes = 5;

/** Stable display name ("masked", "golden", "sdc", "hang",
 *  "crash"). */
constexpr const char *
outcomeName(FaultOutcome o)
{
    switch (o) {
    case FaultOutcome::Masked: return "masked";
    case FaultOutcome::DetectedByGolden: return "golden";
    case FaultOutcome::SilentDataCorruption: return "sdc";
    case FaultOutcome::Hang: return "hang";
    case FaultOutcome::Crash: return "crash";
    }
    return "?";
}

/** Per-class counters for one table cell. */
struct OutcomeCounts
{
    std::array<uint64_t, kNumFaultOutcomes> n{};

    void
    add(FaultOutcome o)
    {
        ++n[static_cast<unsigned>(o)];
    }

    uint64_t
    total() const
    {
        uint64_t t = 0;
        for (uint64_t v : n)
            t += v;
        return t;
    }
};

/**
 * Classify one injected run against its fault-free reference (same
 * RunParams minus the FaultSpec, same golden setting). Total: every
 * Outcome maps to exactly one class.
 */
FaultOutcome classifyOutcome(
    const sim::SimulationRunner::Outcome &faulted,
    const sim::SimulationRunner::Outcome &ref);

/**
 * Draw injection @p n of a campaign at @p site: a seeded-draw
 * trigger uniform in [0, drawRange) with a per-injection seed and
 * mutation, all pure functions of (campaignSeed, site, n).
 */
FaultSpec drawInjection(FaultSite site, unsigned n,
                        uint64_t campaignSeed, uint64_t drawRange);

} // namespace pri::faults

#endif // PRI_FAULTS_CAMPAIGN_HH
