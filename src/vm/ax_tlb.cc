#include "vm/ax_tlb.hh"

#include <algorithm>

#include "energy/energy_ledger.hh"

namespace fusion::vm
{

AxTlb::AxTlb(SimContext &ctx, const AxTlbParams &p,
             const PageTable &pt)
    : _ctx(ctx), _p(p), _pt(pt)
{
    _slots.reserve(p.entries);
    ctx.stats.counters("ax_tlb", {{"lookups", _lookups}, {"misses", _misses}});
    _ecTlb = ctx.energy.component(energy::comp::kAxTlb);
}

void
AxTlb::translate(Pid pid, Addr va, Translated done)
{
    ++_lookups;
    _ctx.energy.add(_ecTlb, _p.lookupPj);

    Addr vpage = pageNumber(va);
    for (Slot &s : _slots) {
        if (s.pid == pid && s.vpage == vpage) {
            s.lastUse = _lookups;
            Addr pa = s.ppageBase | pageOffset(va);
            _ctx.eq.scheduleIn(
                _p.hitLatency,
                [pa, done = std::move(done)]() mutable { done(pa); });
            return;
        }
    }

    ++_misses;
    Addr pa = _pt.translate(pid, va);
    Slot fill{pid, vpage, pa & ~static_cast<Addr>(kPageBytes - 1),
              _lookups};
    if (_slots.size() < _p.entries)
        _slots.push_back(fill);
    else
        *std::min_element(_slots.begin(), _slots.end(),
                          [](const Slot &a, const Slot &b) {
                              return a.lastUse < b.lastUse;
                          }) = fill;
    _ctx.eq.scheduleIn(
        _p.walkLatency,
        [pa, done = std::move(done)]() mutable { done(pa); });
}

} // namespace fusion::vm
