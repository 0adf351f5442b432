#include "free_list.hh"

#include "common/logging.hh"

namespace pri::rename
{

FreeList::FreeList(unsigned num_phys_regs,
                   unsigned initially_allocated)
    : total(num_phys_regs), allocated(num_phys_regs, 0)
{
    PRI_ASSERT(initially_allocated <= num_phys_regs);
    for (unsigned p = 0; p < initially_allocated; ++p)
        allocated[p] = 1;
    allocatedCount = initially_allocated;
    // Stack order: highest-numbered register allocated first; order
    // is irrelevant to correctness.
    freeStack.reserve(num_phys_regs);
    for (unsigned p = initially_allocated; p < num_phys_regs; ++p)
        freeStack.push_back(static_cast<isa::PhysRegId>(p));
}

isa::PhysRegId
FreeList::allocate()
{
    PRI_ASSERT(!freeStack.empty(), "allocate from empty free list");
    const isa::PhysRegId p = freeStack.back();
    freeStack.pop_back();
    PRI_ASSERT(!allocated[p]);
    allocated[p] = 1;
    ++allocatedCount;
    return p;
}

bool
FreeList::free(isa::PhysRegId preg)
{
    PRI_ASSERT(preg < total);
    if (!allocated[preg]) {
        ++nDuplicate;
        return false;
    }
    allocated[preg] = 0;
    --allocatedCount;
    freeStack.push_back(preg);
    return true;
}

bool
FreeList::isAllocated(isa::PhysRegId preg) const
{
    PRI_ASSERT(preg < total);
    return allocated[preg] != 0;
}

} // namespace pri::rename
