#include "simulation.hh"

#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/flight_recorder.hh"
#include "common/hashing.hh"
#include "common/logging.hh"
#include "faults/fault_arg.hh"
#include "sim/sim_instance.hh"

namespace pri::sim
{

uint64_t
paramsHash(const RunParams &params)
{
    uint64_t h = splitMix64(0x5072694a6f75726eULL); // "PriJourn"
    for (const char c : params.benchmark)
        h = hashCombine(h, static_cast<uint64_t>(c));
    h = hashCombine(h, params.width,
                    static_cast<uint64_t>(params.scheme));
    h = hashCombine(h, params.physRegs, params.warmupInsts);
    h = hashCombine(h, params.measureInsts, params.seed);
    // checkGolden changes the persisted goldenChecked field;
    // checkInvariants / goldenAuditInterval only observe the run,
    // change no byte of the result record and are deliberately
    // left out.
    h = hashCombine(h, params.checkGolden ? 1 : 0,
                    params.schedSizeOverride);
    h = hashCombine(h, params.narrowBitsOverride,
                    static_cast<uint64_t>(params.injectFault));
    // The 0 stands where the retired injectFreeWithoutInline flag
    // was hashed (now InjectedFault::FreeWithoutInline above), so
    // every existing key stays valid.
    h = hashCombine(h, 0, params.prfReadPorts);
    // Each 1 stands where a retired implementation switch
    // (checkpoint pool, event wakeup, traced front end) was hashed
    // when on, so every existing key, journal and store stays valid.
    h = hashCombine(h, 1, 1);
    h = hashCombine(h, params.cycleBudget, 1);
    // The transient-fault spec changes the committed stream (and
    // the persisted archSig), so every field is audited: a campaign
    // injection must never be satisfied by a clean run's record or
    // by a different injection's.
    h = hashCombine(h,
                    static_cast<uint64_t>(params.faultSpec.site),
                    static_cast<uint64_t>(params.faultSpec.mutation));
    h = hashCombine(h,
                    static_cast<uint64_t>(params.faultSpec.trigger),
                    params.faultSpec.triggerArg);
    h = hashCombine(h, params.faultSpec.seed);
    return h;
}

std::string
paramsSummary(const RunParams &params)
{
    std::string s =
        fmtStr("{} / {} / w{} / pregs {} / seed {}",
               params.benchmark, schemeName(params.scheme),
               params.width, params.physRegs, params.seed);
    // Appended only for finite budgets so unlimited-port sweep
    // tables stay byte-identical to pre-port-model output.
    if (params.prfReadPorts != 0)
        s += fmtStr(" / ports {}", params.prfReadPorts);
    // Appended only for armed specs so fault-free tables keep their
    // historical bytes.
    if (params.faultSpec.enabled()) {
        s += fmtStr(" / fault {}",
                    faults::formatFaultSpec(params.faultSpec));
    }
    return s;
}

RunResult
simulate(const RunParams &params)
{
    // Arm the forensics trail for this run: the flight recorder
    // restarts empty and carries the params summary so watchdog
    // stalls, panics, and crash dumps name the offending point.
    FlightRecorder &fr = flightRecorder();
    fr.clear();
    fr.setContext(paramsSummary(params).c_str());

    // Build the machine on the cached workload, warm up, measure,
    // and assemble the result (sim_instance.hh).
    return SimInstance(params).run();
}

double
speedupOver(const RunResult &result, const RunResult &base)
{
    PRI_ASSERT(base.ipc > 0.0);
    return result.ipc / base.ipc;
}

} // namespace pri::sim
