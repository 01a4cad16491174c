#include "vm/ax_tlb.hh"

#include "energy/energy_ledger.hh"

namespace fusion::vm
{

AxTlb::AxTlb(SimContext &ctx, const AxTlbParams &p,
             const PageTable &pt)
    : _ctx(ctx), _p(p), _pt(pt)
{
    ctx.stats.counters("ax_tlb", {{"lookups", _lookups}, {"misses", _misses}});
    _ecTlb = ctx.energy.component(energy::comp::kAxTlb);
}

void
AxTlb::translate(Pid pid, Addr va, Translated done)
{
    ++_lookups;
    _ctx.energy.add(_ecTlb, _p.lookupPj);

    Key k{pid, pageNumber(va)};
    auto it = _entries.find(k);
    if (it != _entries.end()) {
        // Refresh LRU.
        _lru.splice(_lru.begin(), _lru, it->second.second);
        Addr pa = it->second.first | pageOffset(va);
        _ctx.eq.scheduleIn(
            _p.hitLatency,
            [pa, done = std::move(done)]() mutable { done(pa); });
        return;
    }

    ++_misses;
    Addr pa = _pt.translate(pid, va);
    Addr ppage_base = pa & ~static_cast<Addr>(kPageBytes - 1);
    insert(k, ppage_base);
    _ctx.eq.scheduleIn(
        _p.walkLatency,
        [pa, done = std::move(done)]() mutable { done(pa); });
}

void
AxTlb::insert(const Key &k, Addr ppage_base)
{
    if (_entries.size() >= _p.entries) {
        const Key &victim = _lru.back();
        _entries.erase(victim);
        _lru.pop_back();
    }
    _lru.push_front(k);
    _entries.emplace(k, std::make_pair(ppage_base, _lru.begin()));
}

} // namespace fusion::vm
