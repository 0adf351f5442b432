/**
 * @file
 * Physical register free list.
 *
 * The paper (§3.2) requires the free-list manager to tolerate
 * duplicate deallocations: a register freed early at retire (because
 * its value was inlined into the map) will be freed again when the
 * next writer of the same architected register commits. The free
 * list must enqueue each register at most once per allocation.
 */

#ifndef PRI_RENAME_FREE_LIST_HH
#define PRI_RENAME_FREE_LIST_HH

#include <cstdint>
#include <vector>

#include "isa/reg.hh"

namespace pri::rename
{

/** Duplicate-tolerant free list over one class's physical registers. */
class FreeList
{
  public:
    /**
     * @param num_phys_regs total physical registers in the class
     * @param initially_allocated how many low-numbered registers
     *        start out allocated (the committed architected state)
     */
    FreeList(unsigned num_phys_regs, unsigned initially_allocated);

    bool hasFree() const { return !freeStack.empty(); }
    size_t numFree() const { return freeStack.size(); }
    unsigned numAllocated() const { return allocatedCount; }
    unsigned size() const { return total; }

    /** Pop a free register; panics when empty (check hasFree()). */
    isa::PhysRegId allocate();

    /**
     * Return @p preg to the free list. Duplicate frees (already
     * free) are ignored, per the paper's requirement.
     * @return true if the register was actually freed now.
     */
    bool free(isa::PhysRegId preg);

    bool isAllocated(isa::PhysRegId preg) const;

    /** Number of duplicate frees that were ignored. */
    uint64_t duplicateFrees() const { return nDuplicate; }

    /** Transient-fault hooks (src/faults): the free stack is SRAM
     *  too. corruptSlot deliberately bypasses the allocated[]
     *  bookkeeping — a struck cell lies while the books stay
     *  truthful, which is exactly how the double-allocation failure
     *  mode arises in real hardware. */
    size_t slotCount() const { return freeStack.size(); }
    isa::PhysRegId slotAt(size_t i) const { return freeStack[i]; }
    void corruptSlot(size_t i, isa::PhysRegId v) { freeStack[i] = v; }

  private:
    unsigned total;
    std::vector<isa::PhysRegId> freeStack;
    std::vector<uint8_t> allocated; ///< one byte per register
    unsigned allocatedCount = 0;
    uint64_t nDuplicate = 0;
};

} // namespace pri::rename

#endif // PRI_RENAME_FREE_LIST_HH
