/**
 * @file
 * Soft-error vulnerability study: transient-fault injection
 * campaigns over Base vs. the PRI schemes (DESIGN.md §17).
 *
 * The paper's mechanism moves architectural state into structures
 * the base machine treats as transient: inlined immediates live in
 * the map table, early-freed registers re-enter circulation while
 * consumers may still name them, and checkpoint copies carry
 * immediates too. This harness measures what that does to soft-
 * error vulnerability: for every (scheme × fault site) cell it runs
 * N seeded single-strike injections and classifies each into
 * {masked, detected-by-golden, silent data corruption, hang,
 * crash}. The vulnerability column is the non-masked fraction —
 * the per-site AVF proxy.
 *
 * Everything is deterministic: injection specs are pure functions
 * of the campaign seed, and classification consumes only bit-exact
 * run artifacts, so the table and its --json file (committed as
 * BENCH_faults.json) are byte-identical across --jobs and --journal
 * resume.
 *
 * Extra options on top of the common set:
 *   --injections N   strikes per (scheme, site) cell (default, or
 *                    0: 16; 4 at --quick, 50 at --full)
 *   --campaign-seed S  root of all injection draws (default 1)
 */

#include <cstdio>

#include "bench_util.hh"
#include "faults/campaign_runner.hh"

namespace
{

constexpr pri::sim::Scheme kSchemes[] = {
    pri::sim::Scheme::Base,
    pri::sim::Scheme::EarlyRelease,
    pri::sim::Scheme::PriRefcountCkptcount,
    pri::sim::Scheme::PriRefcountLazy,
    pri::sim::Scheme::PriIdealCkptcount,
    pri::sim::Scheme::PriIdealLazy,
    pri::sim::Scheme::PriPlusEr,
};

double
vulnerability(const pri::faults::OutcomeCounts &c)
{
    const uint64_t total = c.total();
    if (total == 0)
        return 0.0;
    const uint64_t masked = c.n[static_cast<size_t>(
        pri::faults::FaultOutcome::Masked)];
    return static_cast<double>(total - masked) /
        static_cast<double>(total);
}

void
writeFaultsJson(const std::string &path,
                const pri::faults::CampaignSpec &spec,
                const pri::faults::CampaignTable &table)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        pri::fatal("cannot write {}", path);
    std::fprintf(
        f,
        "{\n\"campaign\": {\"benchmark\": \"%s\", \"width\": %u, "
        "\"pregs\": %u, \"warmup\": %llu, \"measure\": %llu, "
        "\"injectionsPerCell\": %u, \"campaignSeed\": %llu, "
        "\"checkGolden\": %s},\n\"cells\": [\n",
        spec.benchmark.c_str(), spec.width, spec.physRegs,
        static_cast<unsigned long long>(spec.warmupInsts),
        static_cast<unsigned long long>(spec.measureInsts),
        spec.injections,
        static_cast<unsigned long long>(spec.campaignSeed),
        spec.checkGolden ? "true" : "false");
    bool first = true;
    for (size_t s = 0; s < table.schemes.size(); ++s) {
        for (size_t fi = 0; fi < table.sites.size(); ++fi) {
            const auto &c = table.cell(s, fi);
            std::fprintf(
                f,
                "%s  {\"scheme\": \"%s\", \"site\": \"%s\", "
                "\"masked\": %llu, \"golden\": %llu, "
                "\"sdc\": %llu, \"hang\": %llu, \"crash\": %llu, "
                "\"vulnerability\": %.6f}",
                first ? "" : ",\n",
                pri::sim::schemeName(table.schemes[s]),
                pri::faults::siteName(table.sites[fi]),
                static_cast<unsigned long long>(c.n[0]),
                static_cast<unsigned long long>(c.n[1]),
                static_cast<unsigned long long>(c.n[2]),
                static_cast<unsigned long long>(c.n[3]),
                static_cast<unsigned long long>(c.n[4]),
                vulnerability(c));
            first = false;
        }
    }
    std::fprintf(f, "\n]\n}\n");
    const bool failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || failed)
        pri::fatal("cannot write {}", path);
    std::printf("wrote %zu campaign cells to %s\n",
                table.schemes.size() * table.sites.size(),
                path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pri;
    faults::CampaignSpec spec;
    spec.injections = 0; // unless given: derived from the budget
    const auto opts = bench::parseOptions(
        argc, argv, bench::Honours{},
        {{"--injections", &spec.injections},
         {"--campaign-seed", &spec.campaignSeed}});
    spec.schemes.assign(std::begin(kSchemes), std::end(kSchemes));
    // A tenth of the common budgets: a campaign multiplies every
    // cell by N injections, and single-strike classification needs
    // a window, not a long steady state.
    spec.warmupInsts = opts.budget.warmup / 10;
    spec.measureInsts = opts.budget.measure / 10;
    spec.timeoutMs = opts.timeoutMs;
    if (spec.injections == 0) {
        spec.injections = static_cast<unsigned>(
            opts.budget.measure / 5000); // 16 default, 4 quick, 50 full
    }

    faults::CampaignExec exec;
    exec.jobs = opts.jobs;
    // parseOptions() already opened --journal; one writer per file.
    exec.journal = bench::detail::resilience().journal.get();

    std::printf("Soft-error vulnerability (single-strike "
                "campaigns): %s, width %u, %u PR, %u strikes "
                "per cell\n"
                "outcomes per cell: masked/golden/sdc/hang/crash\n\n",
                spec.benchmark.c_str(), spec.width, spec.physRegs,
                spec.injections);

    const auto table = faults::runCampaign(spec, exec);

    std::printf("%-26s", "scheme");
    for (const auto site : table.sites)
        std::printf("  %-14s", faults::siteName(site));
    std::printf("  %s\n", "vuln");
    for (size_t s = 0; s < table.schemes.size(); ++s) {
        std::printf("%-26s", sim::schemeName(table.schemes[s]));
        uint64_t masked = 0, total = 0;
        for (size_t fi = 0; fi < table.sites.size(); ++fi) {
            const auto &c = table.cell(s, fi);
            char buf[32];
            std::snprintf(buf, sizeof(buf),
                          "%llu/%llu/%llu/%llu/%llu",
                          static_cast<unsigned long long>(c.n[0]),
                          static_cast<unsigned long long>(c.n[1]),
                          static_cast<unsigned long long>(c.n[2]),
                          static_cast<unsigned long long>(c.n[3]),
                          static_cast<unsigned long long>(c.n[4]));
            std::printf("  %-14s", buf);
            masked += c.n[0];
            total += c.total();
        }
        std::printf("  %.3f\n",
                    total == 0
                        ? 0.0
                        : static_cast<double>(total - masked) /
                            static_cast<double>(total));
    }

    // Reference sanity line: every scheme's fault-free anchor ran.
    unsigned ref_fail = 0;
    for (const auto &r : table.refs)
        ref_fail += r.ok() ? 0 : 1;
    if (ref_fail != 0)
        std::printf("\nWARNING: %u reference run(s) failed\n",
                    ref_fail);

    if (!opts.jsonPath.empty())
        writeFaultsJson(opts.jsonPath, spec, table);
    return 0;
}
