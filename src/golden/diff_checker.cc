#include "golden/diff_checker.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/strfmt.hh"
#include "isa/op_class.hh"

namespace pri::golden
{

namespace
{

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

DiffChecker::DiffChecker(const workload::SyntheticProgram &program)
    : DiffChecker(program, Options())
{
}

DiffChecker::DiffChecker(const workload::SyntheticProgram &program,
                         Options options)
    : model(program), opt(options)
{
    PRI_ASSERT(opt.archCheckInterval > 0);
    window.reserve(kWindowSize);
}

void
DiffChecker::setAuditHook(std::function<void()> hook)
{
    audit = std::move(hook);
}

void
DiffChecker::onCommit(const core::CommitRecord &rec)
{
    const GoldenInst &g = model.step();

    if (window.size() < kWindowSize)
        window.push_back({rec, g});
    else
        window[windowPos] = {rec, g};
    windowPos = (windowPos + 1) % kWindowSize;

    if (rec.pc != g.pc)
        diverge("pc", rec, g);
    if (rec.op != g.cls)
        diverge("op class", rec, g);
    if (!(rec.dst == g.dst))
        diverge("dest register", rec, g);
    if (g.dst.valid() && rec.value != g.value)
        diverge("dest value", rec, g);
    if (rec.memAddr != g.memAddr)
        diverge("effective address", rec, g);
    if (rec.taken != g.taken)
        diverge("branch direction", rec, g);
    if (rec.target != g.target)
        diverge("branch target", rec, g);

    if (model.committed() % opt.archCheckInterval == 0 && audit)
        audit();
}

void
DiffChecker::finishRun()
{
    if (audit)
        audit();
}

void
DiffChecker::diverge(const char *what, const core::CommitRecord &rec,
                     const GoldenInst &g) const
{
    panic("{} at commit #{} ({}): core "
          "{{seq={} pc={} op={} dst={} val={} addr={} taken={} "
          "tgt={}}} vs golden "
          "{{pc={} op={} dst={} val={} addr={} taken={} tgt={}}}\n{}",
          kDivergenceMarker, g.index, what, rec.seq, hex(rec.pc),
          isa::opClassName(rec.op), rec.dst.str(), hex(rec.value),
          hex(rec.memAddr), rec.taken, hex(rec.target), hex(g.pc),
          isa::opClassName(g.cls), g.dst.str(), hex(g.value),
          hex(g.memAddr), g.taken, hex(g.target),
          diagnosticWindow());
}

std::string
DiffChecker::diagnosticWindow() const
{
    std::string out = "last retired instructions (oldest first):\n";
    // windowPos is the oldest entry once the ring is full.
    const size_t count = window.size();
    const size_t start = count < kWindowSize ? 0 : windowPos;
    for (size_t k = 0; k < count; ++k) {
        const WindowEntry &we = window[(start + k) % count];
        out += fmtStr("  #{} pc={} {} dst={} core_val={} gold_val={} "
                      "addr={} taken={} tgt={}\n",
                      we.golden.index, hex(we.golden.pc),
                      isa::opClassName(we.golden.cls),
                      we.golden.dst.str(), hex(we.core.value),
                      hex(we.golden.value), hex(we.golden.memAddr),
                      we.golden.taken, hex(we.golden.target));
    }
    out += "golden architectural register file:\n";
    const auto &gold = model.archFile();
    for (unsigned i = 0; i < gold.size(); ++i) {
        isa::RegId r{i < isa::kNumLogicalRegs ? isa::RegClass::Int
                                              : isa::RegClass::Fp,
                     static_cast<uint8_t>(i % isa::kNumLogicalRegs)};
        out += fmtStr("  {} {}\n", r.str(), hex(gold[i]));
    }
    return out;
}

} // namespace pri::golden
