#include "workload/trace/trace_cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "workload/gen_params.hh"
#include "workload/profile.hh"
#include "workload/trace/block_compiler.hh"

namespace pri::workload::trace
{

uint64_t
programFingerprint(const SyntheticProgram &prog)
{
    return prog.fingerprint();
}

ProgramTraces::ProgramTraces(const SyntheticProgram &prog)
{
    const auto &p = prog.profile();
    fracNegative = p.fracNegative;
    fpFracZero = p.fpFracZero;
    fpFracSigTrivialNonZero = p.fpFracSigTrivialNonZero;
    randomAccessFrac = p.randomAccessFrac;
    branchCorrelatedFrac = p.branchCorrelatedFrac;
    fp = programFingerprint(prog);
    entryPc_ = prog.block(prog.entry().block).startPc;

    const size_t nb = prog.numBlocks();
    blockFirst.resize(nb);
    startPcs.resize(nb);
    ops_.reserve(prog.numStaticInsts());
    const BlockCompiler compiler(prog);
    for (uint32_t b = 0; b < nb; ++b) {
        const BasicBlock &blk = prog.block(b);
        blockFirst[b] = static_cast<uint32_t>(ops_.size());
        startPcs[b] = blk.startPc;
        compiler.compileBlock(blk, ops_);
    }
    PRI_ASSERT(ops_.size() == prog.numStaticInsts());

    streams_.reserve(prog.streams().size());
    for (const MemStream &st : prog.streams()) {
        TraceStream ts;
        ts.base = st.base;
        ts.hotWords =
            std::min(st.bytes, genp::kHotRegionBytes) >> 3;
        ts.coldWords = st.bytes >> 3;
        ts.seqMask = st.bytes - 1;
        ts.random = st.random;
        streams_.push_back(ts);
    }
}

TraceCache &
TraceCache::global()
{
    static TraceCache cache;
    return cache;
}

std::shared_ptr<const ProgramTraces>
TraceCache::acquire(const SyntheticProgram &prog)
{
    std::lock_guard<std::mutex> lock(mu);
    return acquireLocked(prog);
}

Workload
TraceCache::workload(const std::string &benchmark, uint64_t seed)
{
    const BenchmarkProfile &profile = profileByName(benchmark);
    std::lock_guard<std::mutex> lock(mu);
    const std::pair<std::string, uint64_t> key{benchmark, seed};
    if (auto it = workloads.find(key); it != workloads.end()) {
        ++nWorkloadHits;
        return it->second;
    }
    if (workloads.size() >= kMaxPrograms)
        workloads.clear(); // same wholesale trim as the trace map
    Workload w;
    w.program = std::make_shared<const SyntheticProgram>(profile, seed);
    w.traces = acquireLocked(*w.program);
    ++nBuilt;
    workloads.emplace(key, w);
    return w;
}

void
TraceCache::release(const std::string &benchmark, uint64_t seed)
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = workloads.find({benchmark, seed});
    if (it == workloads.end())
        return;
    entries.erase(it->second.traces->fingerprint());
    workloads.erase(it);
}

std::shared_ptr<const ProgramTraces>
TraceCache::acquireLocked(const SyntheticProgram &prog)
{
    const uint64_t key = programFingerprint(prog);
    if (auto it = entries.find(key); it != entries.end()) {
        ++nShared;
        return it->second;
    }
    if (entries.size() >= kMaxPrograms) {
        // Rare wholesale trim (fuzzers draw fresh seeds forever).
        // Live walkers hold shared_ptrs, so nothing is invalidated.
        nEvicted += entries.size();
        entries.clear();
    }
    auto traces = std::make_shared<const ProgramTraces>(prog);
    ++nCompiled;
    nBlocks += traces->numBlocks();
    nOps += traces->numOps();
    entries.emplace(key, traces);
    return traces;
}

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    Stats s;
    s.programsCompiled = nCompiled;
    s.programsShared = nShared;
    s.programsEvicted = nEvicted;
    s.workloadsBuilt = nBuilt;
    s.workloadsShared = nWorkloadHits;
    s.blocksCompiled = nBlocks;
    s.microOps = nOps;
    for (const auto &[key, traces] : entries)
        s.traceBytes += traces->traceBytes();
    return s;
}

void
TraceCache::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    entries.clear();
    workloads.clear();
    nCompiled = nShared = nEvicted = nBlocks = nOps = 0;
    nBuilt = nWorkloadHits = 0;
}

} // namespace pri::workload::trace
