/**
 * @file
 * Register rename map tables (paper §2.1).
 *
 * RamMapTable: one entry per logical register, each holding either a
 * physical register number or — with physical register inlining — an
 * immediate value (the paper's second "addressing mode" for the map).
 * PRI needs the RAM organisation: a CAM map has one entry per
 * physical register and encodes the register number positionally,
 * so a value stored as a "register number" could be associated with
 * only one logical register at a time.
 */

#ifndef PRI_RENAME_MAP_TABLE_HH
#define PRI_RENAME_MAP_TABLE_HH

#include <array>
#include <cstdint>

#include "isa/reg.hh"

namespace pri::rename
{

/**
 * One rename-map entry: a tagged union of physical register pointer
 * (register-indirect mode) and inlined immediate value.
 */
struct MapEntry
{
    bool imm = false;             ///< addressing mode bit
    isa::PhysRegId preg = isa::kInvalidPhysReg;
    uint64_t value = 0;           ///< inlined value when imm

    bool
    operator==(const MapEntry &o) const
    {
        if (imm != o.imm)
            return false;
        return imm ? value == o.value : preg == o.preg;
    }

    static MapEntry
    makePreg(isa::PhysRegId p)
    {
        return MapEntry{false, p, 0};
    }
    static MapEntry
    makeImm(uint64_t v)
    {
        return MapEntry{true, isa::kInvalidPhysReg, v};
    }
};

/**
 * RAM-style map table for one register class: 32 entries indexed by
 * logical register number. Checkpoints are whole-table copies, as in
 * the MIPS R10000 shadow maps.
 */
class RamMapTable
{
  public:
    using Table = std::array<MapEntry, isa::kNumLogicalRegs>;

    RamMapTable();

    const MapEntry &read(unsigned logical) const;
    void write(unsigned logical, const MapEntry &entry);

    /** The whole table; branch checkpoints copy it. */
    const Table &raw() const { return table; }

  private:
    Table table;
};

} // namespace pri::rename

#endif // PRI_RENAME_MAP_TABLE_HH
