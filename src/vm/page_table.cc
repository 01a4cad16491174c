#include "vm/page_table.hh"

#include "sim/logging.hh"

namespace fusion::vm
{

Addr
PageTable::ensureMapped(Pid pid, Addr va)
{
    Addr &ppage = _map.insert(pageNumber(va), pid);
    if (ppage == 0)
        ppage = _nextPpage++;
    return ppage << kPageShift;
}

void
PageTable::ensureMappedRange(Pid pid, Addr va, std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    Addr first = pageNumber(va);
    Addr last = pageNumber(va + bytes - 1);
    for (Addr p = first; p <= last; ++p)
        ensureMapped(pid, p << kPageShift);
}

void
PageTable::alias(Pid pid, Addr synonym_va, Addr canonical_va)
{
    const Addr *canon = _map.find(pageNumber(canonical_va), pid);
    fusion_assert(canon != nullptr,
                  "alias target not mapped: va=", canonical_va);
    // Copy the frame first: the insert may move every entry.
    Addr ppage = *canon;
    _map.insert(pageNumber(synonym_va), pid) = ppage;
}

Addr
PageTable::translate(Pid pid, Addr va) const
{
    const Addr *ppage = _map.find(pageNumber(va), pid);
    fusion_assert(ppage != nullptr, "unmapped va=", va, " pid=", pid);
    return (*ppage << kPageShift) | pageOffset(va);
}

bool
PageTable::mapped(Pid pid, Addr va) const
{
    return _map.find(pageNumber(va), pid) != nullptr;
}

} // namespace fusion::vm
