/**
 * @file
 * The register-management policy engine: renaming, checkpointing,
 * reference counting, Physical Register Inlining (PRI), and Early
 * Release (ER).
 *
 * This unit owns, per register class (INT / FP):
 *   - the RAM map table (with PRI's immediate addressing mode),
 *   - the duplicate-tolerant free list,
 *   - the per-physical-register scoreboard: complete flag, current
 *     mapping (the inverse of the map; its absence is the ER "unmap"
 *     flag), consumer reference counter, checkpoint reference
 *     counter, and pending-free state,
 *   - branch checkpoints (full map copies, R10000-style).
 *
 * The schemes of paper §3/§5 are switchable via RenameConfig:
 *   - Base: previous mapping freed when the redefining instruction
 *     commits.
 *   - ER [Moudgill et al.]: free as soon as complete + unmapped
 *     (current and checkpointed copies) + no pending consumers.
 *   - PRI: at writeback, a result representable in narrowBits (INT)
 *     or all-zeroes/ones (FP) is inlined into the map (subject to
 *     the Figure 7 WAW check) and its register freed early. WAR
 *     hazards against in-flight consumers are avoided by consumer
 *     reference counting (refcount) or by instantly rewriting the
 *     consumers' payload entries (ideal). Stale checkpoint pointers
 *     are handled by checkpoint reference counting (ckptcount) or by
 *     walking and updating every checkpointed copy (lazy).
 */

#ifndef PRI_RENAME_RENAME_UNIT_HH
#define PRI_RENAME_RENAME_UNIT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "faults/fault_spec.hh"
#include "isa/reg.hh"
#include "rename/free_list.hh"
#include "rename/map_table.hh"

namespace pri::rename
{

/** Register-management scheme selection (paper §5 configurations). */
struct RenameConfig
{
    /** Physical registers per class (paper default: 64). */
    unsigned numPhysRegs = 64;
    /** Narrow-value width for INT inlining (7 @4-wide, 10 @8-wide). */
    unsigned narrowBitsInt = 7;

    bool pri = false;          ///< physical register inlining on
    bool priIdeal = false;     ///< instant payload update (vs refcount)
    bool lazyCkptUpdate = false; ///< lazy ckpt walk (vs ckpt counting)
    bool earlyRelease = false; ///< ER flags/counter scheme on

    /**
     * Virtual-physical registers (paper §6 future work, after
     * Gonzalez et al. [7] / Monreal et al. [17]): renaming hands out
     * virtual tags and never stalls for registers; physical storage
     * is claimed only at writeback, when the value actually exists.
     * numPhysRegs then bounds the number of *written, live* values
     * rather than the number of renamed destinations. The last
     * `width` instructions before the ROB head claim from a
     * reserved pool so the pipeline can always drain (the classic
     * VP deadlock avoidance).
     */
    bool virtualPhysical = false;
    /** Storage reserved for the oldest instructions under VP. */
    unsigned vpReserve = 4;

    /**
     * Checker-validation fault injection (tests only): on a narrow
     * writeback that passes the Figure 7 WAW check, release the
     * register *without* inlining its value into the map — the
     * reclaim-ordering bug PRI's map update exists to prevent. A
     * freed register then stays architecturally live, and the next
     * reallocation corrupts it. Never set outside tests.
     */
    bool injectFreeWithoutInline = false;

    /** Human-readable scheme label for reports. */
    std::string schemeName() const;

    /** Size of the rename-tag namespace: numPhysRegs normally, a
     *  large virtual tag space under virtual-physical renaming. */
    unsigned
    renameTagSpace() const
    {
        return virtualPhysical
            ? (numPhysRegs > 1024 ? numPhysRegs : 1024)
            : numPhysRegs;
    }

    // --- paper configurations ---
    static RenameConfig base(unsigned pregs, unsigned narrow_bits);
    static RenameConfig er(unsigned pregs, unsigned narrow_bits);
    static RenameConfig priRefcountCkptcount(unsigned pregs,
                                             unsigned narrow_bits);
    static RenameConfig priRefcountLazy(unsigned pregs,
                                        unsigned narrow_bits);
    static RenameConfig priIdealCkptcount(unsigned pregs,
                                          unsigned narrow_bits);
    static RenameConfig priIdealLazy(unsigned pregs,
                                     unsigned narrow_bits);
    static RenameConfig priPlusEr(unsigned pregs,
                                  unsigned narrow_bits);
    static RenameConfig infinite(unsigned narrow_bits);
    static RenameConfig virtualPhys(unsigned pregs,
                                    unsigned narrow_bits);
    static RenameConfig virtualPhysPlusPri(unsigned pregs,
                                           unsigned narrow_bits);
};

/** What the rename stage hands a consumer for one source operand. */
struct SrcRead
{
    bool valid = false;     ///< operand exists
    bool imm = false;       ///< payload carries an immediate
    isa::RegClass cls = isa::RegClass::Int;
    isa::PhysRegId preg = isa::kInvalidPhysReg;
    uint64_t value = 0;     ///< operand value (functional)
    bool refHeld = false;   ///< holds a consumer reference on preg
};

/**
 * Callback invoked in the ideal-PRI flavour when a register's value
 * is inlined: the core must rewrite every in-flight payload entry
 * that names (cls, preg) to carry the immediate instead, clearing
 * refHeld on each.
 */
using IdealInlineHook =
    std::function<void(isa::RegClass, isa::PhysRegId, uint64_t)>;

/** Identifier for a branch checkpoint. */
using CkptId = uint64_t;

/**
 * Rename-side counters interned against the StatGroup once at
 * construction; the rename/writeback/free hot paths update them
 * through cached references instead of string-keyed map lookups.
 */
struct RenameStats
{
    explicit RenameStats(StatGroup &sg);

    StatScalar &cycles;
    StatScalar &occupancyIntAccum;
    StatScalar &occupancyFpAccum;
    StatScalar &srcImmReads;
    StatScalar &srcPregReads;
    StatScalar &destAllocs;
    StatScalar &checkpointsCreated;
    StatScalar &checkpointsSquashed;
    StatScalar &checkpointsRestored;
    StatScalar &narrowResultsInt;
    StatScalar &narrowResultsFp;
    StatScalar &inlinedCurrentMap;
    StatScalar &narrowButRemapped;
    StatScalar &lazyCkptUpdates;
    StatScalar &idealPayloadRewrites;
    StatScalar &vpWritebackStalls;
    StatScalar &vpEmergencyClaims;
    StatScalar &vpStorageClaims;
    StatScalar &commitPrevWasImm;
    StatScalar &duplicateCommitFrees;
    StatScalar &squashDuplicateFrees;
    StatScalar &priEarlyFrees;
    StatScalar &erEarlyFrees;
    StatScalar &frees;
    StatAverage &lifeAllocToWrite;
    StatAverage &lifeWriteToLastRead;
    StatAverage &lifeLastReadToRelease;
    StatAverage &lifeTotal;
};

/** The rename/retire/commit-side register management engine. */
class RenameUnit
{
  public:
    RenameUnit(const RenameConfig &config, StatGroup &stats);

    const RenameConfig &config() const { return cfg; }

    /** Install the ideal-flavour payload rewrite hook. */
    void setIdealInlineHook(IdealInlineHook hook);

    /** Advance time; accumulates occupancy statistics. */
    void beginCycle(uint64_t cycle);

    // ---- rename stage ----

    /** True when a destination of class @p cls can be renamed now. */
    bool canRename(isa::RegClass cls) const;

    /** Read one source operand through the map. */
    SrcRead readSrc(isa::RegId src);

    /** Result of renaming a destination register. */
    struct DestRename
    {
        isa::PhysRegId preg = isa::kInvalidPhysReg;
        uint64_t gen = 0;      ///< allocation generation of preg
        MapEntry prev;         ///< previous map entry of the logical
        uint64_t prevGen = 0;  ///< generation of prev.preg (if preg)
    };

    /**
     * Allocate a destination register and update the map.
     * @param dst logical destination
     * @param future_value the value this instruction will produce
     *        (functional bookkeeping; timing is the core's business)
     */
    DestRename renameDest(isa::RegId dst, uint64_t future_value);

    // ---- branch checkpoints ----

    /** Checkpoint both map tables (and take checkpoint references). */
    CkptId createCheckpoint();

    /**
     * Reserve room for @p n simultaneously live checkpoints so
     * createCheckpoint never allocates, even the first time the
     * in-flight branch count reaches a new high-water mark. Call
     * once, before renaming starts. Only renamed branches hold
     * rename checkpoints, so the core passes its ROB size.
     */
    void reserveCheckpoints(unsigned n);

    /**
     * Branch resolved (correctly or not): the shadow map can no
     * longer be restored, so PRI's checkpoint reference counters
     * (kept per Akkary-style checkpoint retirement) are dropped.
     * The checkpoint record itself survives to commit because the
     * published Early Release scheme requires the unmap flag to be
     * true in every checkpointed copy, and copies are kept to the
     * commit (exception-precise) horizon.
     */
    void resolveCheckpoint(CkptId id);

    /** Branch committed: drop the checkpoint entirely. Branches
     *  commit in order, so @p id must be the oldest live one. */
    void releaseCheckpoint(CkptId id);

    /**
     * Branch mispredicted: restore the current maps from the
     * checkpoint. The checkpoint stays alive until the branch
     * commits (releaseCheckpoint) — it may be restored again only
     * in the sense of remaining referenced.
     */
    void restoreCheckpoint(CkptId id);

    /** Squashed younger branch: drop checkpoint and references.
     *  Squashes unwind youngest first, so @p id must be the
     *  youngest live one. */
    void discardCheckpoint(CkptId id);

    // ---- consumer side ----

    /** Consumer finished reading its operand (successful execute). */
    void consumerDone(SrcRead &src);

    /** Consumer squashed before reading. */
    void consumerSquashed(SrcRead &src);

    // ---- retire (writeback) stage ----

    /**
     * Result written back to the PRF. Sets the complete flag, and —
     * with PRI — performs the significance check, the Figure 7 WAW
     * check, the map/checkpoint updates, and the early free.
     * @p gen must be the allocation generation from renameDest.
     *
     * Under virtual-physical renaming this is also where physical
     * storage is claimed; @p privileged marks instructions near the
     * ROB head that may use the reserved pool.
     * @return false when no storage is available (VP only) — the
     *         caller must retry the writeback later.
     */
    bool writeback(isa::RegId dst, isa::PhysRegId preg, uint64_t gen,
                   uint64_t value, bool privileged = true);

    /** Written, live values currently occupying physical storage
     *  (VP accounting; equals occupancy() in conventional mode). */
    unsigned storageInUse(isa::RegClass cls) const;

    // ---- commit stage ----

    /**
     * Redefining instruction committed: free the previous mapping.
     * Duplicate frees (the register was already inlined-and-freed,
     * possibly even reallocated) are detected via @p prev_gen and
     * ignored, per the paper's free-list requirement (§3.2).
     */
    void commitDest(isa::RegClass cls, const MapEntry &prev,
                    uint64_t prev_gen);

    // ---- squash ----

    /** Free the destination register of a squashed instruction. */
    void squashDest(isa::RegClass cls, isa::PhysRegId preg,
                    uint64_t gen);

    // ---- introspection (tests / stats / invariants) ----

    /** Current map entry for a logical register. */
    const MapEntry &mapEntry(isa::RegId reg) const;

    /** Functional value of an allocated physical register. */
    uint64_t physRegValue(isa::RegClass cls, isa::PhysRegId p) const;

    /** Allocation generation of a physical register (matches the
     *  gen returned by renameDest while the producer owns it). */
    uint64_t physRegGen(isa::RegClass cls, isa::PhysRegId p) const;

    unsigned occupancy(isa::RegClass cls) const;
    bool isAllocated(isa::RegClass cls, isa::PhysRegId p) const;
    int consumerRefs(isa::RegClass cls, isa::PhysRegId p) const;
    int ckptRefs(isa::RegClass cls, isa::PhysRegId p) const;
    size_t liveCheckpoints() const { return ckptCount; }

    /** Check internal invariants; panics on violation. */
    void checkInvariants() const;

    // ---- transient-fault hook (src/faults) ----

    /**
     * Apply @p spec's mutation to one seeded target inside this
     * unit's SRAM structures: a PRF value cell, a current map-table
     * entry (including PRI's inlined immediates), a free-list slot,
     * or a live checkpoint's map copy. Deliberately skips the
     * bookkeeping a real strike could not reach (mappedBy,
     * allocated[], reference counters), so the downstream outcome —
     * masked, detected, silent corruption, hang, crash — emerges
     * from the machine rather than from the injector.
     * @return true when a target existed and was mutated; false when
     *         the strike landed in empty state (trivially masked).
     */
    bool applyFault(const faults::FaultSpec &spec, uint64_t rnd);

  private:
    /** One physical register's scoreboard: 64 bytes, a cache line. */
    struct PregInfo
    {
        uint64_t value = 0;       ///< functional register contents
        uint64_t gen = 0;         ///< allocation generation
        /** Id of the youngest checkpoint taken while this register
         *  was still the current mapping. ER may free only once
         *  every checkpoint up to this id has died (the "unmapped in
         *  all checkpointed copies" condition at commit horizon). */
        uint64_t erUnmapWatermark = 0;
        // lifetime bookkeeping
        uint64_t allocCycle = 0;
        uint64_t writeCycle = 0;
        uint64_t lastReadCycle = 0;
        int consumerRefs = 0;     ///< renamed-but-not-done consumers
        /** Logical reg (per-class index) or -1. Written only through
         *  ClassState::setMappedBy. */
        int16_t mappedBy = -1;
        bool complete = false;    ///< written back
        bool pendingNarrowFree = false; ///< PRI early-free armed
        bool pendingCommitFree = false; ///< redefiner committed
        bool holdsStorage = false; ///< VP: claimed physical storage
        bool everRead = false;
    };

    struct ClassState
    {
        RamMapTable map;
        FreeList freeList;
        std::vector<PregInfo> pregs;
        /** Unresolved checkpoints naming each register, kept apart
         *  from pregs so the per-checkpoint walk touches one int per
         *  map entry. */
        std::vector<int> ckptRefs;
        /** Bit p set iff p is allocated and not the current mapping:
         *  the only registers tryFree can free without a map or
         *  reference change, i.e. the ER sweep's candidates. */
        std::vector<uint64_t> unmapped;
        unsigned storageUsed = 0; ///< VP: written live values

        ClassState(unsigned num_phys, unsigned num_arch)
            : freeList(num_phys, num_arch), pregs(num_phys),
              ckptRefs(num_phys, 0), unmapped((num_phys + 63) / 64, 0)
        {
        }

        /** Set @p p's current mapping (-1: none), keeping the
         *  unmapped bitmap in step. */
        void setMappedBy(isa::PhysRegId p, int16_t logical);
    };

    struct Checkpoint
    {
        CkptId id = 0;
        bool resolved = false;
        RamMapTable::Table intMap;
        RamMapTable::Table fpMap;
    };

    ClassState &state(isa::RegClass cls);
    const ClassState &state(isa::RegClass cls) const;

    /** True when @p value qualifies for inlining in class @p cls. */
    bool isNarrow(isa::RegClass cls, uint64_t value) const;

    /** Attempt to free; respects mapping/refs/eligibility rules. */
    void tryFree(isa::RegClass cls, isa::PhysRegId p);

    /** Unconditional free with lifetime accounting. */
    void doFree(isa::RegClass cls, isa::PhysRegId p, bool squashed);

    /** Whether checkpoint reference counters are maintained. */
    bool useCkptRefs() const;

    void takeCkptRefs(const Checkpoint &c, int delta);

    /** Oldest live checkpoint advanced: retry ER frees. */
    void sweepErFrees();

    /** True when every checkpoint up to @p watermark has died. */
    bool erCkptHorizonClear(uint64_t watermark) const;

    /** The @p k-th oldest live checkpoint. */
    Checkpoint &liveCkpt(size_t k);

    RenameConfig cfg;
    RenameStats stats;
    ClassState intState;
    ClassState fpState;
    /**
     * Live checkpoints as a ring in age order: the oldest at slot
     * ckptHead, ckptCount of them. Ids rise with age and are never
     * reused (ER watermarks compare against them). Branches commit
     * oldest first and squash youngest first, so a checkpoint only
     * ever leaves from one of the two ends. Slots are constructed
     * only at a new high-water mark of the live count.
     */
    std::vector<Checkpoint> ckptRing;
    size_t ckptHead = 0;
    size_t ckptCount = 0;
    CkptId nextCkptId = 1;
    IdealInlineHook idealHook;
    uint64_t now = 0;
};

} // namespace pri::rename

#endif // PRI_RENAME_RENAME_UNIT_HH
