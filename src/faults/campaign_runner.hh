/**
 * @file
 * The transient-fault campaign driver (DESIGN.md §17).
 *
 * A campaign is a declarative grid — schemes × fault sites × N
 * seeded injections — expanded into ordinary RunParams and executed
 * through the same machinery every sweep uses: the in-process
 * SimulationRunner with capture-not-fatal semantics, consulting and
 * filling the sweep journal when one is given. One reference
 * (fault-free) run per scheme anchors the classification; every
 * injection is then sorted into exactly one FaultOutcome bucket by
 * classifyOutcome(). A crashed or hung injection is just a counted
 * outcome — it can never abort the campaign.
 *
 * Determinism: injection specs are pure functions of the campaign
 * seed (drawInjection), execution order never affects results
 * (submission-order scatter), and classification consumes only
 * bit-exact fields (report, archSig, stalled flag, the golden
 * divergence marker). Tables built from a CampaignTable are
 * therefore byte-identical across --jobs and journal resume.
 *
 * Header-only by design: pri_faults itself stays below pri_sim in
 * the link order (core structures include fault_spec.hh), while
 * this header needs the runner — so the binaries that run campaigns
 * (bench harnesses, tests, CI drills) include it and link pri_sim
 * themselves.
 */

#ifndef PRI_FAULTS_CAMPAIGN_RUNNER_HH
#define PRI_FAULTS_CAMPAIGN_RUNNER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/hashing.hh"
#include "faults/campaign.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"

namespace pri::faults
{

/** Declarative campaign grid: what to strike, where, how often. */
struct CampaignSpec
{
    std::string benchmark = "gap";
    unsigned width = 4;
    unsigned physRegs = 64;
    uint64_t warmupInsts = 2000;
    uint64_t measureInsts = 8000;
    uint64_t programSeed = 42;
    std::vector<sim::Scheme> schemes;
    std::vector<FaultSite> sites{kAllFaultSites,
                                 kAllFaultSites + 6};
    /** Seeded injections per (scheme, site) cell. */
    unsigned injections = 32;
    /** Root of every per-injection seed/trigger draw. */
    uint64_t campaignSeed = 1;
    /**
     * Strike-cycle window for the seeded draws; 0 derives it from
     * the instruction budget (IPC near 1 on these workloads, so
     * warmup+measure cycles covers the run; strikes drawn past the
     * end simply never fire and count as masked — real AVF
     * derating, not an error).
     */
    uint64_t drawWindow = 0;
    bool checkGolden = true;
    uint64_t timeoutMs = 0;
};

/** Execution environment: reuse the harness's pool and journal. */
struct CampaignExec
{
    unsigned jobs = 0;       ///< 0 = hardware_concurrency
    sim::RetryPolicy retry{1, 0};
    sim::SweepJournal *journal = nullptr; ///< optional
};

/** Campaign output: per-(scheme, site) outcome counts. */
struct CampaignTable
{
    std::vector<sim::Scheme> schemes;
    std::vector<FaultSite> sites;
    std::vector<OutcomeCounts> counts; ///< scheme-major
    /** Reference outcomes, one per scheme (fault-free runs). */
    std::vector<sim::SimulationRunner::Outcome> refs;

    OutcomeCounts &
    cell(size_t scheme_idx, size_t site_idx)
    {
        return counts[scheme_idx * sites.size() + site_idx];
    }

    const OutcomeCounts &
    cell(size_t scheme_idx, size_t site_idx) const
    {
        return counts[scheme_idx * sites.size() + site_idx];
    }
};

/**
 * The injection spec for cell position (@p scheme_idx, @p site,
 * injection @p n) of a campaign — a pure function of the campaign
 * seed, exposed so tests can reproduce any single injection as a
 * standalone run.
 */
inline FaultSpec
campaignInjection(const CampaignSpec &spec, size_t scheme_idx,
                  FaultSite site, unsigned n)
{
    const uint64_t window = spec.drawWindow != 0
        ? spec.drawWindow
        : spec.warmupInsts + spec.measureInsts;
    return drawInjection(
        site, n,
        hashCombine(spec.campaignSeed, scheme_idx,
                    0x63616d706169676eULL),
        window);
}

/** Run @p batch with capture-not-fatal semantics on the
 *  campaign's pool; journaled points are served, not simulated. */
inline std::vector<sim::SimulationRunner::Outcome>
runCampaignBatch(const std::vector<sim::RunParams> &batch,
                 const CampaignExec &exec)
{
    sim::SimulationRunner runner(exec.jobs);
    runner.setRetryPolicy(exec.retry);
    runner.setJournal(exec.journal);
    return runner.runCaptured(batch);
}

/**
 * Execute the full campaign: one reference run per scheme, then
 * schemes × sites × N injections, classified into the outcome
 * table. Total by construction — every injection lands in exactly
 * one bucket, and no injection outcome (crash, hang) can abort the
 * sweep.
 */
inline CampaignTable
runCampaign(const CampaignSpec &spec, const CampaignExec &exec)
{
    CampaignTable table;
    table.schemes = spec.schemes;
    table.sites = spec.sites;
    table.counts.assign(spec.schemes.size() * spec.sites.size(),
                        OutcomeCounts{});

    const auto base_params = [&](size_t scheme_idx) {
        sim::RunParams p;
        p.benchmark = spec.benchmark;
        p.width = spec.width;
        p.scheme = spec.schemes[scheme_idx];
        p.physRegs = spec.physRegs;
        p.warmupInsts = spec.warmupInsts;
        p.measureInsts = spec.measureInsts;
        p.seed = spec.programSeed;
        p.checkGolden = spec.checkGolden;
        p.timeoutMs = spec.timeoutMs;
        return p;
    };

    // References: the fault-free anchor per scheme.
    std::vector<sim::RunParams> refs;
    refs.reserve(spec.schemes.size());
    for (size_t s = 0; s < spec.schemes.size(); ++s)
        refs.push_back(base_params(s));
    table.refs = runCampaignBatch(refs, exec);

    // Injections, scheme-major.
    std::vector<sim::RunParams> inj;
    inj.reserve(spec.schemes.size() * spec.sites.size() *
                spec.injections);
    for (size_t s = 0; s < spec.schemes.size(); ++s) {
        for (const FaultSite site : spec.sites) {
            for (unsigned n = 0; n < spec.injections; ++n) {
                sim::RunParams p = base_params(s);
                p.faultSpec = campaignInjection(spec, s, site, n);
                inj.push_back(std::move(p));
            }
        }
    }
    const auto outcomes = runCampaignBatch(inj, exec);

    size_t k = 0;
    for (size_t s = 0; s < spec.schemes.size(); ++s) {
        for (size_t f = 0; f < spec.sites.size(); ++f) {
            for (unsigned n = 0; n < spec.injections; ++n, ++k) {
                table.cell(s, f).add(
                    classifyOutcome(outcomes[k], table.refs[s]));
            }
        }
    }
    return table;
}

} // namespace pri::faults

#endif // PRI_FAULTS_CAMPAIGN_RUNNER_HH
