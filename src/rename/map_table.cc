#include "map_table.hh"

#include "common/logging.hh"

namespace pri::rename
{

RamMapTable::RamMapTable()
{
    // Identity initial mapping: logical r -> physical r.
    for (unsigned i = 0; i < isa::kNumLogicalRegs; ++i)
        table[i] = MapEntry::makePreg(static_cast<isa::PhysRegId>(i));
}

const MapEntry &
RamMapTable::read(unsigned logical) const
{
    PRI_ASSERT(logical < isa::kNumLogicalRegs);
    return table[logical];
}

void
RamMapTable::write(unsigned logical, const MapEntry &entry)
{
    PRI_ASSERT(logical < isa::kNumLogicalRegs);
    table[logical] = entry;
}

} // namespace pri::rename
