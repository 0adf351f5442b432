#include "walker.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/hashing.hh"
#include "common/logging.hh"
#include "workload/gen_params.hh"
#include "workload/trace/trace_cache.hh"

namespace pri::workload
{

using namespace genp;

Walker::Walker(const SyntheticProgram &program,
               const trace::ProgramTraces *traces)
    : prog(program), seed(program.seed()), loc(program.entry()),
      tr(traces),
      cur(traces != nullptr ? traces->blockOps(loc.block) + loc.idx
                            : nullptr)
{
    PRI_ASSERT(traces == nullptr ||
                   traces->fingerprint() ==
                       trace::programFingerprint(program),
               "walker given traces compiled from another program");
}

uint64_t
Walker::genIntValue(const StaticInst &si, uint64_t g) const
{
    const auto &p = prog.profile();
    unsigned w;
    if (hashUniform(seed ^ kSaltWidthSel, si.id, g) <
        kWidthStaySelFrac) {
        // Stay near this static instruction's width class.
        const int jit = static_cast<int>(
            hashRange(5, seed ^ kSaltWidthJit, si.id, g)) - 2;
        const int bw = static_cast<int>(si.widthClass) + jit;
        w = static_cast<unsigned>(std::clamp(bw, 1, 64));
    } else {
        // Fresh sample from the benchmark-wide CDF.
        w = prog.widthCdf().sample(
            hashUniform(seed ^ kSaltWidthNew, si.id, g));
    }

    if (w == 1) {
        // 1-bit two's complement: 0 or -1; zeroes dominate.
        return hashUniform(seed ^ kSaltNeg, si.id, g) < kOneBitNegFrac
            ? ~uint64_t{0} : 0;
    }
    const uint64_t base = uint64_t{1} << (w - 2);
    const uint64_t mag =
        base + hashRange(base, seed ^ kSaltMag, si.id, g);
    const bool neg =
        hashUniform(seed ^ kSaltNeg, si.id, g) < p.fracNegative;
    return neg ? static_cast<uint64_t>(-static_cast<int64_t>(mag) - 1)
               : mag;
}

uint64_t
Walker::genFpValue(const StaticInst &si, uint64_t g) const
{
    const auto &p = prog.profile();
    if (hashUniform(seed ^ kSaltFpZero, si.id, g) < p.fpFracZero)
        return 0; // +0.0: the inlineable case

    // A plausible non-zero normal double.
    const uint64_t exp = kFpExpBase +
        hashRange(kFpExpRange, seed ^ kSaltFpExp, si.id, g);
    uint64_t sig;
    if (hashUniform(seed ^ kSaltFpTriv, si.id, g) <
            p.fpFracSigTrivialNonZero) {
        sig = 0; // integral power of two (1.0, 2.0, 0.5, ...)
    } else {
        sig = hashCombine(seed ^ kSaltFpSig, si.id, g) &
            ((uint64_t{1} << 52) - 1);
    }
    const uint64_t sign =
        hashUniform(seed ^ kSaltFpSign, si.id, g) < kFpSignNegFrac
            ? 1 : 0;
    return (sign << 63) | (exp << 52) | sig;
}

uint64_t
Walker::genAddress(const StaticInst &si, uint64_t g) const
{
    PRI_ASSERT(si.memStream >= 0);
    int32_t stream = si.memStream;
    if (si.altStream >= 0 &&
        hashUniform(seed ^ kSaltStreamSel, si.id, g) <
            prog.profile().randomAccessFrac) {
        stream = si.altStream;
    }
    const MemStream &st = prog.streams()[stream];
    if (st.random) {
        const bool cold =
            hashUniform(seed ^ kSaltAddrCold, si.id, g) <
            kColdAccessFrac;
        const uint64_t span =
            cold ? st.bytes : std::min(st.bytes, kHotRegionBytes);
        return st.base +
            (hashRange(span >> 3, seed ^ kSaltAddr, si.id, g) << 3);
    }
    // Sequential-ish: the stream position advances one 8-byte word
    // every 16 dynamic instructions, so consecutive executions of a
    // static load reuse cache lines and the whole (small) buffer
    // stays DL1-resident. st.bytes is a power of two.
    return st.base + (((g >> 4) << 3) & (st.bytes - 1));
}

bool
Walker::branchOutcome(const StaticInst &si, uint64_t g) const
{
    const auto &p = prog.profile();
    if (si.correlatable) {
        const uint64_t h = hist & kHistMask;
        if (hashUniform(seed ^ kSaltCorrSel, si.id, h) <
                p.branchCorrelatedFrac) {
            // Outcome is a pure function of recent history:
            // learnable by the gshare component.
            return hashCombine(seed ^ kSaltCorrOut, si.id, h) & 1;
        }
    }
    return hashUniform(seed ^ kSaltBias, si.id, g) < si.bias;
}

// --- pre-folded replay generators -------------------------------
// Each is the fold of its legacy twin above: identical draws in the
// same order, with the (seed, salt, id) rounds baked into the
// MicroOp prefixes (gen_params.hh pins the folding identity).

uint64_t
Walker::replayIntValue(const trace::MicroOp &op, uint64_t g) const
{
    unsigned w;
    if (foldUniform(op.preWidthSel, g) < kWidthStaySelFrac) {
        const int jit =
            static_cast<int>(foldRange(5, op.preWidthJit, g)) - 2;
        const int bw = static_cast<int>(op.widthClass) + jit;
        w = static_cast<unsigned>(std::clamp(bw, 1, 64));
    } else {
        w = prog.widthCdf().sample(foldUniform(op.preWidthNew, g));
    }

    if (w == 1) {
        return foldUniform(op.preNeg, g) < kOneBitNegFrac
            ? ~uint64_t{0} : 0;
    }
    const uint64_t base = uint64_t{1} << (w - 2);
    const uint64_t mag = base + foldRange(base, op.preMag, g);
    const bool neg = foldUniform(op.preNeg, g) < tr->fracNegative;
    return neg ? static_cast<uint64_t>(-static_cast<int64_t>(mag) - 1)
               : mag;
}

uint64_t
Walker::replayFpValue(const trace::MicroOp &op, uint64_t g) const
{
    if (foldUniform(op.preFpZero, g) < tr->fpFracZero)
        return 0;

    const uint64_t exp =
        kFpExpBase + foldRange(kFpExpRange, op.preFpExp, g);
    uint64_t sig;
    if (foldUniform(op.preFpTriv, g) < tr->fpFracSigTrivialNonZero) {
        sig = 0;
    } else {
        sig = foldHash(op.preFpSig, g) & ((uint64_t{1} << 52) - 1);
    }
    const uint64_t sign =
        foldUniform(op.preFpSign, g) < kFpSignNegFrac ? 1 : 0;
    return (sign << 63) | (exp << 52) | sig;
}

uint64_t
Walker::replayAddress(const trace::MicroOp &op, uint64_t g) const
{
    const trace::TraceStream *st = &tr->streams()[op.stream];
    if (op.altStream != trace::kNoStream &&
        foldUniform(op.preStreamSel, g) < tr->randomAccessFrac) {
        st = &tr->streams()[op.altStream];
    }
    if (st->random) {
        const uint64_t words =
            foldUniform(op.preAddrCold, g) < kColdAccessFrac
                ? st->coldWords : st->hotWords;
        return st->base + (foldRange(words, op.preAddr, g) << 3);
    }
    return st->base + (((g >> 4) << 3) & st->seqMask);
}

bool
Walker::replayBranchOutcome(const trace::MicroOp &op,
                            uint64_t g) const
{
    if ((op.flags & trace::kFlagCorrelatable) != 0) {
        const uint64_t h = hist & kHistMask;
        if (foldUniform(op.preCorrSel, h) < tr->branchCorrelatedFrac)
            return foldHash(op.preCorrOut, h) & 1;
    }
    return foldUniform(op.preBias, g) < op.bias;
}

WInst
Walker::next()
{
    if (cur != nullptr)
        return nextTraced();

    PRI_ASSERT(!pending, "next() called with an unsteered branch");

    const BasicBlock &blk = prog.block(loc.block);
    const StaticInst &si = blk.insts.at(loc.idx);
    const uint64_t g = gidx++;

    WInst wi;
    wi.seq = seqCounter++;
    wi.staticId = si.id;
    wi.pc = si.pc;
    wi.cls = si.cls;
    wi.dst = si.dst;
    wi.src1 = si.src1;
    wi.src2 = si.src2;

    if (wi.hasDst()) {
        if (si.isDeadHint) {
            wi.resultValue = 0; // load-immediate of a narrow value
        } else {
            wi.resultValue = wi.dst.cls == isa::RegClass::Fp
                ? genFpValue(si, g) : genIntValue(si, g);
        }
    }
    if (si.memStream >= 0)
        wi.memAddr = genAddress(si, g);

    if (si.cls == isa::OpClass::Branch) {
        wi.isCall = si.isCall;
        wi.isReturn = si.isReturn;
        wi.isUncond = si.isUncond;
        wi.fallThrough = prog.block(blk.fallthrough).startPc;
        if (si.isReturn) {
            wi.taken = true;
            wi.actualTarget = stack.empty()
                ? prog.block(prog.entry().block).startPc
                : prog.block(stack.back().block).startPc;
        } else if (si.isUncond) {
            wi.taken = true;
            wi.actualTarget = prog.block(si.takenBlock).startPc;
        } else {
            wi.taken = branchOutcome(si, g);
            wi.actualTarget = prog.block(si.takenBlock).startPc;
        }
        pending = true;
        return wi;
    }

    // Advance within the block / fall through to the successor.
    if (++loc.idx >= blk.insts.size())
        loc = ProgLoc{blk.fallthrough, 0};
    return wi;
}

WInst
Walker::nextTraced()
{
    PRI_ASSERT(!pending, "next() called with an unsteered branch");

    const trace::MicroOp &op = *cur;
    const uint64_t g = gidx++;

    WInst wi;
    wi.seq = seqCounter++;
    wi.staticId = op.staticId;
    wi.pc = op.pc;
    wi.cls = op.cls;
    wi.dst = op.dst;
    wi.src1 = op.src1;
    wi.src2 = op.src2;

    switch (op.kind) {
      case trace::OpKind::IntDst:
        wi.resultValue = replayIntValue(op, g);
        break;
      case trace::OpKind::FpDst:
        wi.resultValue = replayFpValue(op, g);
        break;
      case trace::OpKind::ZeroDst:
      case trace::OpKind::NoDst:
        break;
      case trace::OpKind::LoadInt:
        wi.resultValue = replayIntValue(op, g);
        wi.memAddr = replayAddress(op, g);
        break;
      case trace::OpKind::LoadFp:
        wi.resultValue = replayFpValue(op, g);
        wi.memAddr = replayAddress(op, g);
        break;
      case trace::OpKind::Store:
        wi.memAddr = replayAddress(op, g);
        break;
      case trace::OpKind::BranchCond:
      case trace::OpKind::BranchJmp:
      case trace::OpKind::BranchRet:
        wi.isCall = (op.flags & trace::kFlagCall) != 0;
        wi.isReturn = (op.flags & trace::kFlagReturn) != 0;
        wi.isUncond = (op.flags & trace::kFlagUncond) != 0;
        wi.fallThrough = op.fallThroughPc;
        if (op.kind == trace::OpKind::BranchRet) {
            wi.taken = true;
            wi.actualTarget = stack.empty()
                ? tr->entryPc()
                : tr->startPc(stack.back().block);
        } else if (op.kind == trace::OpKind::BranchJmp) {
            wi.taken = true;
            wi.actualTarget = op.takenTargetPc;
        } else {
            wi.taken = replayBranchOutcome(op, g);
            wi.actualTarget = op.takenTargetPc;
        }
        pending = true;
        return wi;
    }

    // Advance within the block / fall through to the successor.
    if ((op.flags & trace::kFlagLast) != 0) {
        loc = ProgLoc{op.fallthroughBlock, 0};
        cur = tr->blockOps(op.fallthroughBlock);
    } else {
        ++loc.idx;
        ++cur;
    }
    return wi;
}

void
Walker::steer(const WInst &branch, bool taken, uint64_t target_pc)
{
    PRI_ASSERT(pending, "steer() without a pending branch");
    pending = false;

    if (!branch.isUncond)
        hist = (hist << 1) | (taken ? 1 : 0);

    if (cur != nullptr) {
        // Traced fast path: the branch's successors were resolved at
        // compile time; only foreign targets (wrong-path steers to
        // some other block's start, e.g. under fault injection) fall
        // back to the PC map. Identical state updates to the legacy
        // path below.
        const trace::MicroOp &op = *cur;
        if (branch.isCall) {
            stack.push_back(ProgLoc{op.fallthroughBlock, 0});
        } else if (branch.isReturn && !stack.empty()) {
            const ProgLoc ret = stack.back();
            stack.pop_back();
            if (taken && target_pc == tr->startPc(ret.block)) {
                loc = ret; // pushed as {block, 0}
                cur = tr->blockOps(ret.block);
                return;
            }
        }
        if (!taken)
            loc = ProgLoc{op.fallthroughBlock, 0};
        else if (target_pc == op.takenTargetPc &&
                 op.takenBlock != kNoBlock)
            loc = ProgLoc{op.takenBlock, 0};
        else
            loc = prog.locateBlockStart(target_pc);
        cur = tr->blockOps(loc.block) + loc.idx;
        return;
    }

    const BasicBlock &blk = prog.block(loc.block);
    if (branch.isCall) {
        // Return address: the fall-through block.
        stack.push_back(ProgLoc{blk.fallthrough, 0});
    } else if (branch.isReturn) {
        if (!stack.empty())
            stack.pop_back();
    }

    if (taken)
        loc = prog.locateBlockStart(target_pc);
    else
        loc = ProgLoc{blk.fallthrough, 0};
}

WalkerCkpt
Walker::checkpoint() const
{
    PRI_ASSERT(pending,
               "walker checkpoints are taken at pending branches");
    return WalkerCkpt{loc, stack, gidx, hist};
}

void
Walker::checkpointInto(WalkerCkpt &out) const
{
    PRI_ASSERT(pending,
               "walker checkpoints are taken at pending branches");
    out.loc = loc;
    out.stack.assign(stack.begin(), stack.end());
    out.gidx = gidx;
    out.hist = hist;
}

void
Walker::restore(const WalkerCkpt &ckpt)
{
    loc = ckpt.loc;
    stack.assign(ckpt.stack.begin(), ckpt.stack.end());
    gidx = ckpt.gidx;
    hist = ckpt.hist;
    if (tr != nullptr)
        cur = tr->blockOps(loc.block) + loc.idx;
    // The branch at `loc` has already been generated; the core must
    // immediately steer() it down the actual path.
    pending = true;
}

} // namespace pri::workload
