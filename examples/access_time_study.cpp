/**
 * @file
 * Example: translate PRI's IPC gains into register-file access-time
 * headroom, the framing of the paper's introduction ("this paper
 * advocates more efficient utilization of a fewer number of physical
 * registers in order to reduce the access time of the physical
 * register file").
 *
 * For a benchmark, find the smallest conventional register file that
 * matches PRI-at-64's IPC, then report what PRI at that smaller file
 * buys in modelled access delay, area, and energy.
 *
 * Usage: access_time_study [benchmark] [width]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/parse_number.hh"
#include "rename/prf_model.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"

int
main(int argc, char **argv)
{
    using namespace pri;
    const std::string bench = argc > 1 ? argv[1] : "gzip";
    const unsigned width =
        argc > 2 ? parseFlagValue<unsigned>("width", argv[2]) : 4;

    sim::RunParams p;
    p.benchmark = bench;
    p.width = width;

    // 1. Reference points and the PRI downsizing sweep, dispatched
    //    as one batch through the parallel runner (the sweep points
    //    are independent; the first match is picked afterwards).
    std::vector<sim::RunParams> batch;
    p.physRegs = 64;
    p.scheme = sim::Scheme::Base;
    batch.push_back(p);
    p.scheme = sim::Scheme::PriRefcountCkptcount;
    batch.push_back(p);
    std::vector<unsigned> sweep;
    for (unsigned r = 40; r <= 64; r += 4) {
        p.physRegs = r;
        batch.push_back(p);
        sweep.push_back(r);
    }
    const auto results = sim::SimulationRunner().run(batch);
    const auto &base64 = results[0];
    const auto &pri64 = results[1];

    std::printf("Access-time study: %s, %u-wide\n\n", bench.c_str(),
                width);
    std::printf("Base @64 regs: IPC %.3f;  PRI @64 regs: IPC %.3f "
                "(%.1f%%)\n\n",
                base64.ipc, pri64.ipc,
                100.0 * (pri64.ipc / base64.ipc - 1.0));

    // 2. How small can a PRI register file be and still match the
    //    conventional 64-entry design?
    unsigned pri_match = 64;
    for (size_t i = 0; i < sweep.size(); ++i) {
        if (results[2 + i].ipc >= base64.ipc) {
            pri_match = sweep[i];
            break;
        }
    }

    const unsigned ports_r = 2 * width;
    const unsigned ports_w = width;
    rename::PrfGeometry conv{64, 64, ports_r, ports_w};
    rename::PrfGeometry pri_g{pri_match, 64, ports_r, ports_w};

    const double d_conv = rename::PrfModel::rawDelay(conv);
    const double d_pri = rename::PrfModel::rawDelay(pri_g);
    const double a_conv = rename::PrfModel::rawArea(conv);
    const double a_pri = rename::PrfModel::rawArea(pri_g);
    const double e_conv = rename::PrfModel::rawEnergy(conv);
    const double e_pri = rename::PrfModel::rawEnergy(pri_g);

    std::printf("PRI matches the conventional 64-entry file with "
                "~%u entries.\n\n",
                pri_match);
    std::printf("%-22s %10s %10s %10s\n", "register file",
                "delay", "area", "energy");
    std::printf("%-22s %10.3f %10.3f %10.3f\n", "conventional 64",
                d_conv, a_conv / a_conv, e_conv / e_conv);
    std::printf("%-22s %10.3f %10.3f %10.3f\n",
                ("PRI " + std::to_string(pri_match)).c_str(), d_pri,
                a_pri / a_conv, e_pri / e_conv);
    std::printf("\naccess delay saved: %.1f%%, area saved: %.1f%%, "
                "energy/access saved: %.1f%%\n",
                100.0 * (1.0 - d_pri / d_conv),
                100.0 * (1.0 - a_pri / a_conv),
                100.0 * (1.0 - e_pri / e_conv));
    std::printf("(first-order analytical model; see "
                "src/rename/prf_model.hh)\n");
    return 0;
}
