#include "vm/ax_rmap.hh"

#include "energy/energy_ledger.hh"
#include "sim/logging.hh"

namespace fusion::vm
{

AxRmap::AxRmap(SimContext &ctx, const AxRmapParams &p)
    : _ctx(ctx), _p(p)
{
    ctx.stats.counters("ax_rmap", {{"inserts", _inserts},
                                   {"lookups", _lookups},
                                   {"synonym_probes", _synonymProbes}});
    _ecRmap = ctx.energy.component(energy::comp::kAxRmap);
}

void
AxRmap::insert(Addr pline, Addr vline, Pid pid)
{
    _map.insert(lineAlign(pline)) = RmapEntry{lineAlign(vline), pid};
    ++_inserts;
}

void
AxRmap::erase(Addr pline)
{
    _map.erase(lineAlign(pline));
}

std::optional<RmapEntry>
AxRmap::lookup(Addr pline)
{
    ++_lookups;
    _ctx.energy.add(_ecRmap, _p.lookupPj);
    const RmapEntry *e = _map.find(lineAlign(pline));
    return e ? std::optional(*e) : std::nullopt;
}

std::optional<RmapEntry>
AxRmap::probeForSynonym(Addr pline)
{
    ++_synonymProbes;
    _ctx.energy.add(_ecRmap, _p.lookupPj);
    const RmapEntry *e = _map.find(lineAlign(pline));
    return e ? std::optional(*e) : std::nullopt;
}

} // namespace fusion::vm
