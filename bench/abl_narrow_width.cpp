/**
 * @file
 * Ablation: sensitivity of PRI to the narrow-value width (the
 * map-entry size). The paper fixes 7 bits for the 4-wide model and
 * 10 bits for the 8-wide model (§4, "a slight increase in the map
 * table entry size seems reasonable"); this sweep shows what other
 * widths would have bought, per benchmark class.
 */

#include <cstdio>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pri;
    // seedMeanIpc() keeps no results for writeJson(): no --json.
    const auto opts = bench::parseOptions(argc, argv, {.json = false});
    const unsigned widths[] = {4, 7, 8, 10, 12, 16};
    const std::string benches[] = {"gzip", "crafty", "mcf", "gcc"};

    std::printf("=== Ablation: PRI speedup vs narrow-value width "
                "(4-wide, 64 PR) ===\n\n");
    std::printf("%-10s", "bench");
    for (unsigned w : widths)
        std::printf(" %7ub", w);
    std::printf("\n");

    // One point per cell (plus one 7-bit Base per row), as one
    // runner batch; rows print in order afterwards.
    std::vector<sim::RunParams> points;
    const auto add = [&](const std::string &b, sim::Scheme scheme,
                         unsigned narrow_bits) {
        auto p = bench::detail::paramsFor({b, 4, scheme}, opts.budget,
                                          0);
        p.narrowBitsOverride = narrow_bits;
        points.push_back(p);
    };
    for (const auto &b : benches) {
        add(b, sim::Scheme::Base, 7);
        for (unsigned w : widths)
            add(b, sim::Scheme::PriRefcountCkptcount, w);
    }
    const auto ipc = bench::seedMeanIpc(points, opts);

    size_t j = 0;
    for (const auto &b : benches) {
        const double base = ipc[j++];
        std::printf("%-10s", b.c_str());
        for (size_t k = 0; k < std::size(widths); ++k)
            std::printf(" %7.3f", ipc[j++] / base);
        std::printf("\n");
    }
    std::printf("\npaper choice: 7 bits at 4-wide (8-bit map entry "
                "minus the mode bit)\n");
    return 0;
}
