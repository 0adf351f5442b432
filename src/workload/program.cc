#include "program.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>

#include "common/bitutils.hh"
#include "common/hashing.hh"
#include "common/logging.hh"

namespace pri::workload
{

namespace
{

constexpr uint64_t kCodeBase = 0x10000;
constexpr uint64_t kRandomHeapBase = 0x10000000;
constexpr uint64_t kHotHeapBase = 0x20000000;

/** Clamp a double into [lo, hi]. */
double
clampd(double v, double lo, double hi)
{
    return std::min(hi, std::max(lo, v));
}

uint64_t
mixDouble(uint64_t h, double v)
{
    return hashCombine(h, std::bit_cast<uint64_t>(v));
}

} // namespace

SyntheticProgram::SyntheticProgram(const BenchmarkProfile &profile,
                                   uint64_t seed)
    : prof(profile), theSeed(seed), cdf(profile.widthPoints)
{
    SplitMixRng rng(splitMix64(seed ^ 0xb10c5));
    buildStreams();
    buildFunctions(rng);
    fp = computeFingerprint();
}

uint64_t
SyntheticProgram::computeFingerprint() const
{
    const auto &p = prof;
    uint64_t h = hashCombine(0x7472616365ULL /* "trace" */, theSeed,
                             numBlocks());
    h = hashCombine(h, numStaticInsts());

    // Every scalar the replay generators compare against.
    h = mixDouble(h, p.fracNegative);
    h = mixDouble(h, p.fpFracZero);
    h = mixDouble(h, p.fpFracSigTrivialNonZero);
    h = mixDouble(h, p.randomAccessFrac);
    h = mixDouble(h, p.branchCorrelatedFrac);
    for (unsigned bits = 1; bits <= 64; ++bits)
        h = mixDouble(h, cdf.at(bits));

    for (const MemStream &st : streams_) {
        h = hashCombine(h, st.base, st.bytes);
        h = hashCombine(h, st.random ? 1 : 0);
    }

    for (const BasicBlock &blk : blocks_) {
        h = hashCombine(h, blk.startPc, blk.fallthrough);
        for (const StaticInst &si : blk.insts) {
            h = hashCombine(h, si.id, si.pc);
            h = hashCombine(h, static_cast<uint64_t>(si.cls),
                            (uint64_t{si.dst.flat()} << 32) |
                                (uint64_t{si.src1.flat()} << 16) |
                                si.src2.flat());
            h = hashCombine(h,
                            std::bit_cast<uint32_t>(si.memStream),
                            std::bit_cast<uint32_t>(si.altStream));
            h = hashCombine(h, si.takenBlock,
                            std::bit_cast<uint32_t>(si.bias));
            h = hashCombine(h,
                            (uint64_t{si.isCall} << 5) |
                                (uint64_t{si.isReturn} << 4) |
                                (uint64_t{si.isUncond} << 3) |
                                (uint64_t{si.correlatable} << 2) |
                                (uint64_t{si.isDeadHint} << 1),
                            si.widthClass);
        }
    }
    return h;
}

void
SyntheticProgram::buildStreams()
{
    // Random streams share the same big heap region, mimicking
    // pointer-chasing over one large data structure; hot streams are
    // small disjoint power-of-two buffers that fit in the DL1.
    const unsigned num_random = std::max(2u, prof.numFunctions / 2);
    const unsigned num_hot = std::max(4u, prof.numFunctions);

    for (unsigned i = 0; i < num_random; ++i) {
        MemStream s;
        s.base = kRandomHeapBase;
        s.bytes = std::max<uint64_t>(prof.workingSetBytes, 4096);
        s.random = true;
        streams_.push_back(s);
    }
    for (unsigned i = 0; i < num_hot; ++i) {
        MemStream s;
        // Stagger bases so distinct streams land in distinct cache
        // sets (1MB-aligned bases would alias the same DL1 indices).
        s.base = kHotHeapBase + uint64_t{i} * ((1 << 20) + 1040);
        s.bytes = 512; // small enough that every stream stays DL1-resident
        s.random = false;
        streams_.push_back(s);
    }
}

void
SyntheticProgram::buildFunctions(SplitMixRng &rng)
{
    const unsigned num_funcs = prof.numFunctions;
    const unsigned bpf = prof.blocksPerFunction;
    const double body_mean =
        (1.0 - prof.fracBranch) / std::max(prof.fracBranch, 0.02);

    // Conditional class probabilities for block bodies (branches are
    // terminators, so renormalise the rest of the mix).
    const double non_br = 1.0 - prof.fracBranch;
    const double p_load = prof.fracLoad / non_br;
    const double p_store = prof.fracStore / non_br;
    const double p_imul = prof.fracIntMult / non_br;
    const double p_idiv = prof.fracIntDiv / non_br;
    const double p_fadd = prof.fracFpAdd / non_br;
    const double p_fmul = prof.fracFpMult / non_br;
    const double p_fdiv = prof.fracFpDiv / non_br;

    const unsigned num_random =
        std::max(2u, prof.numFunctions / 2);
    const unsigned num_hot = std::max(4u, prof.numFunctions);

    funcEntry.resize(num_funcs);
    for (unsigned f = 0; f < num_funcs; ++f)
        funcEntry[f] = f * bpf;

    uint64_t pc = kCodeBase;
    uint32_t inst_id = 0;
    blocks_.reserve(size_t{num_funcs} * bpf);

    for (unsigned f = 0; f < num_funcs; ++f) {
        // Per-function generation state.
        std::deque<uint8_t> recent_int;
        std::deque<uint8_t> recent_fp;
        // Dedicated pointer registers for loop-carried load chains.
        // Several independent chains expose memory-level
        // parallelism; a single chain serialises (ammp-style).
        const unsigned n_chain =
            std::max(1u, std::min(8u, prof.chainCount));
        std::array<uint8_t, 8> chain_regs{};
        for (unsigned i = 0; i < n_chain; ++i)
            chain_regs[i] = static_cast<uint8_t>(24 + i);
        auto is_chain_reg = [&](uint8_t r) {
            for (unsigned i = 0; i < n_chain; ++i)
                if (chain_regs[i] == r)
                    return true;
            return false;
        };
        // This function's preferred streams.
        const uint32_t chase_stream =
            static_cast<uint32_t>(rng.nextRange(num_random));
        const uint32_t hot_stream = static_cast<uint32_t>(
            num_random + rng.nextRange(num_hot));

        // Compiled code recycles a small set of temporaries rapidly;
        // bias destination selection toward per-function "hot"
        // registers so write-after-write reuse distances match real
        // programs (this is what bounds baseline register lifetime).
        std::array<uint8_t, 6> hot_int{};
        std::array<uint8_t, 6> hot_fp{};
        for (unsigned i = 0; i < hot_int.size(); ++i) {
            do {
                hot_int[i] = static_cast<uint8_t>(
                    rng.nextRange(isa::kNumLogicalRegs));
            } while (is_chain_reg(hot_int[i]));
            hot_fp[i] = static_cast<uint8_t>(
                rng.nextRange(isa::kNumLogicalRegs));
        }
        auto pick_int_reg = [&]() -> uint8_t {
            if (rng.nextDouble() < 0.70)
                return hot_int[rng.nextRange(hot_int.size())];
            uint8_t r;
            do {
                r = static_cast<uint8_t>(rng.nextRange(
                    isa::kNumLogicalRegs));
            } while (is_chain_reg(r));
            return r;
        };
        auto pick_fp_reg = [&]() -> uint8_t {
            if (rng.nextDouble() < 0.70)
                return hot_fp[rng.nextRange(hot_fp.size())];
            return static_cast<uint8_t>(
                rng.nextRange(isa::kNumLogicalRegs));
        };
        auto pick_src = [&](isa::RegClass cls) -> isa::RegId {
            auto &recent = cls == isa::RegClass::Int ? recent_int
                                                     : recent_fp;
            if (!recent.empty() &&
                rng.nextDouble() < prof.depLocality) {
                const uint8_t r =
                    recent[rng.nextRange(recent.size())];
                return isa::RegId{cls, r};
            }
            const uint8_t r = cls == isa::RegClass::Int
                ? pick_int_reg() : pick_fp_reg();
            return isa::RegId{cls, r};
        };
        auto note_dest = [&](isa::RegId dst) {
            auto &recent = dst.cls == isa::RegClass::Int ? recent_int
                                                         : recent_fp;
            recent.push_back(dst.idx);
            while (recent.size() > prof.depWindow)
                recent.pop_front();
        };

        for (unsigned b = 0; b < bpf; ++b) {
            BasicBlock blk;
            blk.id = funcEntry[f] + b;
            blk.startPc = pc;
            blk.fallthrough =
                (b + 1 < bpf) ? blk.id + 1 : funcEntry[f];

            // --- body ---
            const unsigned body_len = std::max<unsigned>(
                1, static_cast<unsigned>(
                       body_mean * (0.5 + rng.nextDouble()) + 0.5));
            for (unsigned i = 0; i < body_len; ++i) {
                StaticInst si;
                si.id = inst_id++;
                si.pc = pc;
                pc += 4;

                const double roll = rng.nextDouble();
                double acc = p_load;
                if (roll < acc) {
                    si.cls = isa::OpClass::Load;
                } else if (roll < (acc += p_store)) {
                    si.cls = isa::OpClass::Store;
                } else if (roll < (acc += p_imul)) {
                    si.cls = isa::OpClass::IntMult;
                } else if (roll < (acc += p_idiv)) {
                    si.cls = isa::OpClass::IntDiv;
                } else if (roll < (acc += p_fadd)) {
                    si.cls = isa::OpClass::FpAdd;
                } else if (roll < (acc += p_fmul)) {
                    si.cls = isa::OpClass::FpMult;
                } else if (roll < (acc += p_fdiv)) {
                    si.cls = isa::OpClass::FpDiv;
                } else {
                    si.cls = isa::OpClass::IntAlu;
                }

                switch (si.cls) {
                  case isa::OpClass::Load:
                    if (rng.nextDouble() < prof.chainedLoadFrac) {
                        // Loop-carried pointer chase on one of the
                        // function's chain registers.
                        const uint8_t cr = chain_regs[rng.nextRange(
                            n_chain)];
                        si.dst = isa::intReg(cr);
                        si.src1 = isa::intReg(cr);
                        si.memStream =
                            static_cast<int32_t>(chase_stream);
                    } else {
                        const bool fp_dst =
                            prof.suite == Suite::Fp &&
                            rng.nextDouble() < 0.55;
                        si.dst = fp_dst
                            ? isa::fpReg(pick_fp_reg())
                            : isa::intReg(pick_int_reg());
                        si.src1 = pick_src(isa::RegClass::Int);
                        si.memStream = static_cast<int32_t>(hot_stream);
                        si.altStream = static_cast<int32_t>(
                            rng.nextRange(num_random));
                    }
                    break;
                  case isa::OpClass::Store:
                    si.src1 = pick_src(isa::RegClass::Int);
                    si.src2 = prof.suite == Suite::Fp &&
                            rng.nextDouble() < 0.5
                        ? pick_src(isa::RegClass::Fp)
                        : pick_src(isa::RegClass::Int);
                    si.memStream = static_cast<int32_t>(hot_stream);
                    si.altStream = static_cast<int32_t>(
                        rng.nextRange(num_random));
                    break;
                  case isa::OpClass::FpAdd:
                  case isa::OpClass::FpMult:
                  case isa::OpClass::FpDiv:
                    si.dst = isa::fpReg(pick_fp_reg());
                    si.src1 = pick_src(isa::RegClass::Fp);
                    si.src2 = pick_src(isa::RegClass::Fp);
                    break;
                  default: // IntAlu, IntMult, IntDiv
                    si.dst = isa::intReg(pick_int_reg());
                    si.src1 = pick_src(isa::RegClass::Int);
                    if (rng.nextDouble() < 0.7)
                        si.src2 = pick_src(isa::RegClass::Int);
                    break;
                }

                if (si.dst.valid() &&
                    si.dst.cls == isa::RegClass::Int) {
                    si.widthClass = static_cast<uint8_t>(
                        cdf.sample(rng.nextDouble()));
                }
                if (si.dst.valid())
                    note_dest(si.dst);
                blk.insts.push_back(si);
            }

            // --- software dead-value hint (paper §6) ---
            // The id/pc slot and both random draws are consumed
            // unconditionally so programs at different hint
            // densities are otherwise identical (sweepable).
            {
                const double hint_roll = rng.nextDouble();
                const uint64_t reg_roll = rng.next();
                const uint32_t hint_id = inst_id++;
                const uint64_t hint_pc = pc;
                pc += 4;
                if (hint_roll < prof.deadHintFrac &&
                    !recent_int.empty()) {
                    StaticInst hint;
                    hint.id = hint_id;
                    hint.pc = hint_pc;
                    hint.cls = isa::OpClass::IntAlu;
                    hint.isDeadHint = true;
                    hint.widthClass = 1;
                    // The compiler knows this register is dead past
                    // the block; overwrite it with a narrow value.
                    hint.dst = isa::intReg(recent_int[
                        reg_roll % recent_int.size()]);
                    blk.insts.push_back(hint);
                }
            }

            // --- terminator ---
            StaticInst br;
            br.id = inst_id++;
            br.pc = pc;
            pc += 4;
            br.cls = isa::OpClass::Branch;
            br.src1 = pick_src(isa::RegClass::Int);

            if (b + 1 == bpf) {
                // Final block: function 0 loops forever; others
                // return to their caller.
                if (f == 0) {
                    br.isUncond = true;
                    br.takenBlock = funcEntry[0];
                    br.bias = 1.0f;
                } else {
                    br.isReturn = true;
                    br.isUncond = true;
                    br.bias = 1.0f;
                }
            } else {
                const double roll = rng.nextDouble();
                if (roll < 0.08 && f + 1 < num_funcs) {
                    // Call a higher-numbered function (no recursion).
                    br.isCall = true;
                    br.isUncond = true;
                    br.bias = 1.0f;
                    const unsigned g = f + 1 +
                        rng.nextRange(num_funcs - f - 1);
                    br.takenBlock = funcEntry[g];
                } else if (roll < 0.12) {
                    // Unconditional forward jump within function.
                    br.isUncond = true;
                    br.bias = 1.0f;
                    br.takenBlock = funcEntry[f] + b + 1 +
                        rng.nextRange(bpf - b - 1);
                } else if (rng.nextDouble() < prof.loopBackProb) {
                    // Loop back-edge, strongly taken.
                    br.takenBlock =
                        funcEntry[f] + rng.nextRange(b + 1);
                    br.bias = static_cast<float>(clampd(
                        prof.loopTakenBias +
                            0.08 * (rng.nextDouble() - 0.5),
                        0.60, 0.99));
                } else {
                    // Forward conditional.
                    br.takenBlock = funcEntry[f] + b + 1 +
                        rng.nextRange(bpf - b - 1);
                    if (rng.nextDouble() < prof.branchEasyFrac) {
                        const double lo = rng.nextDouble() < 0.5
                            ? 0.005 : 0.955;
                        br.bias = static_cast<float>(
                            lo + 0.04 * rng.nextDouble());
                    } else {
                        br.bias = static_cast<float>(
                            0.25 + 0.5 * rng.nextDouble());
                        br.correlatable = true;
                    }
                }
            }
            blk.insts.push_back(br);
            blockByPc[blk.startPc] = blk.id;
            numInsts += blk.insts.size();
            blocks_.push_back(std::move(blk));
        }
    }

    PRI_ASSERT(blocks_.size() == size_t{num_funcs} * bpf);
}

ProgLoc
SyntheticProgram::locateBlockStart(uint64_t pc) const
{
    auto it = blockByPc.find(pc);
    if (it == blockByPc.end())
        panic("pc {:#x} is not a block start", pc);
    return ProgLoc{it->second, 0};
}

} // namespace pri::workload
