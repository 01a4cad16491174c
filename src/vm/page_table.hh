/**
 * @file
 * Per-process page tables.
 *
 * The accelerator tile operates on virtual addresses; physical
 * addresses exist only on the host side of the AX-TLB (Section 3.2,
 * "Virtual Memory"). This page table backs both the AX-TLB (VA->PA
 * on the L1X miss path) and the AX-RMAP construction (PA->L1X
 * pointer for forwarded requests).
 *
 * Physical pages are assigned deterministically in mapping order so
 * simulations are reproducible. Synonyms (two VAs mapping to one PA)
 * are supported via alias() for the appendix's synonym-handling
 * tests.
 */

#ifndef FUSION_VM_PAGE_TABLE_HH
#define FUSION_VM_PAGE_TABLE_HH

#include <cstdint>

#include "mem/line_table.hh"
#include "sim/types.hh"

namespace fusion::vm
{

/** Page size used throughout. */
constexpr std::uint32_t kPageBytes = 4096;
constexpr std::uint32_t kPageShift = 12;

/** Virtual page number of an address. */
constexpr Addr
pageNumber(Addr a)
{
    return a >> kPageShift;
}

/** Page offset of an address. */
constexpr Addr
pageOffset(Addr a)
{
    return a & (kPageBytes - 1);
}

/** Forward + reverse per-process page tables. */
class PageTable
{
  public:
    /**
     * Map the page containing @p va for @p pid (no-op if mapped).
     * @return the physical page base address.
     */
    Addr ensureMapped(Pid pid, Addr va);

    /** Map every page overlapping [va, va+bytes). */
    void ensureMappedRange(Pid pid, Addr va, std::uint64_t bytes);

    /**
     * Create a synonym: the page of @p synonym_va maps to the same
     * physical page as the already-mapped @p canonical_va.
     */
    void alias(Pid pid, Addr synonym_va, Addr canonical_va);

    /**
     * Translate. @return physical address.
     * Panics on unmapped addresses (traces pre-map everything).
     */
    Addr translate(Pid pid, Addr va) const;

    /** True if the page of @p va is mapped for @p pid. */
    bool mapped(Pid pid, Addr va) const;

    /** Number of mapped virtual pages. */
    std::size_t pageCount() const { return _map.size(); }

  private:
    /// (vpage, pid) -> ppage. Frames start at _nextPpage's first
    /// value, so a ppage of 0 is an entry insert() just added.
    mem::LineTable<Addr> _map;
    Addr _nextPpage = 0x10; ///< first pages reserved
};

} // namespace fusion::vm

#endif // FUSION_VM_PAGE_TABLE_HH
