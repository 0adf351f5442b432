#include "faults/fault_arg.hh"

#include <vector>

#include "common/parse_number.hh"

namespace pri::faults
{

namespace
{

const char kKindList[] =
    "valid kinds: wedge, wrong-path, stale-gidx, port-overgrant, "
    "or SITE:MUT:TRIG=N[:seed=S] with SITE one of "
    "prf|map|freelist|wake|ckpt|lsq, MUT one of flip|stale|zero, "
    "TRIG one of cycle|access|draw (append @POINT to restrict to "
    "one sweep point)";

std::vector<std::string>
splitColon(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (;;) {
        const size_t colon = s.find(':', start);
        if (colon == std::string::npos) {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, colon - start));
        start = colon + 1;
    }
}

bool
parseU64(const std::string &s, uint64_t &out)
{
    const auto v = parseDecimal<uint64_t>(s);
    if (v)
        out = *v;
    return v.has_value();
}

bool
lookupSite(const std::string &tok, FaultSite &out)
{
    for (FaultSite s : kAllFaultSites) {
        if (tok == siteName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

bool
lookupMutation(const std::string &tok, FaultMutation &out)
{
    for (FaultMutation m : {FaultMutation::BitFlip,
                            FaultMutation::StaleValue,
                            FaultMutation::ZeroEntry}) {
        if (tok == mutationName(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

bool
lookupTrigger(const std::string &tok, FaultTrigger &out)
{
    for (FaultTrigger t : {FaultTrigger::AtCycle,
                           FaultTrigger::NthAccess,
                           FaultTrigger::SeededDraw}) {
        if (tok == triggerName(t)) {
            out = t;
            return true;
        }
    }
    return false;
}

} // namespace

bool
parseFaultArg(const std::string &text, FaultArg &out,
              std::string &err)
{
    out = FaultArg{};
    err.clear();

    std::string body = text;
    const size_t at = body.rfind('@');
    if (at != std::string::npos) {
        uint64_t pt = 0;
        if (!parseU64(body.substr(at + 1), pt)) {
            err = "bad @POINT in '" + text + "'; " + kKindList;
            return false;
        }
        out.point = static_cast<long>(pt);
        body = body.substr(0, at);
    }

    // Legacy planted-bug kinds.
    using core::InjectedFault;
    if (body == "wedge") {
        out.legacy = InjectedFault::WedgeScheduler;
        return true;
    }
    if (body == "wrong-path") {
        out.legacy = InjectedFault::CommitWrongPath;
        return true;
    }
    if (body == "stale-gidx") {
        out.legacy = InjectedFault::StaleWalkerGidx;
        return true;
    }
    if (body == "port-overgrant") {
        out.legacy = InjectedFault::PortOverGrant;
        return true;
    }

    // Declarative FaultSpec: SITE:MUT:TRIG=N[:seed=S]
    const auto toks = splitColon(body);
    if (toks.size() < 3 || toks.size() > 4) {
        err = "unknown fault '" + text + "'; " + kKindList;
        return false;
    }
    FaultSpec spec;
    if (!lookupSite(toks[0], spec.site)) {
        err = "unknown fault site '" + toks[0] + "'; " + kKindList;
        return false;
    }
    if (!lookupMutation(toks[1], spec.mutation)) {
        err = "unknown fault mutation '" + toks[1] + "'; " +
            kKindList;
        return false;
    }
    const size_t eq = toks[2].find('=');
    if (eq == std::string::npos ||
        !lookupTrigger(toks[2].substr(0, eq), spec.trigger) ||
        !parseU64(toks[2].substr(eq + 1), spec.triggerArg)) {
        err = "bad fault trigger '" + toks[2] + "'; " + kKindList;
        return false;
    }
    if (toks.size() == 4) {
        if (toks[3].rfind("seed=", 0) != 0 ||
            !parseU64(toks[3].substr(5), spec.seed)) {
            err = "bad fault seed '" + toks[3] + "'; " + kKindList;
            return false;
        }
    }
    out.spec = spec;
    return true;
}

std::string
formatFaultSpec(const FaultSpec &spec)
{
    std::string s = siteName(spec.site);
    s += ':';
    s += mutationName(spec.mutation);
    s += ':';
    s += triggerName(spec.trigger);
    s += '=';
    s += std::to_string(spec.triggerArg);
    if (spec.seed != 0) {
        s += ":seed=";
        s += std::to_string(spec.seed);
    }
    return s;
}

} // namespace pri::faults
