#include "accel/l1x_host.hh"

#include <sstream>

namespace fusion::accel
{

using coherence::CoherenceReq;
using mem::MesiState;

L1xHost::L1xHost(SimContext &ctx, const L1xParams &p,
                 energy::SramKind kind,
                 coherence::CoherentAgent &agent, host::Llc &llc,
                 interconnect::Link *llc_link, vm::AxTlb &tlb,
                 vm::AxRmap &rmap, Evictable evictable,
                 stats::Histogram *fill_latency)
    : _ctx(ctx), _llc(llc), _tlb(tlb), _rmap(rmap),
      _tags(mem::CacheGeometry{p.capacityBytes, p.assoc, kLineBytes}),
      _evictable(std::move(evictable)), _fillLatency(fill_latency)
{
    energy::SramParams sp;
    sp.capacityBytes = p.capacityBytes;
    sp.assoc = p.assoc;
    sp.banks = p.banks;
    sp.kind = kind;
    _fig = energy::evaluateSram(sp);
    _ecL1x = ctx.energy.component(energy::comp::kL1x);
    _agentId = llc.registerAgent(&agent, llc_link, p.ringNode);
    ctx.stats.counters(p.name, {{"reads", _reads},
                                {"writes", _writes},
                                {"synonym_evictions", _synonymEvictions},
                                {"frame_retries", _frameRetries},
                                {"evictions", _evictions},
                                {"fwd_recv", _fwdRecv}});
    ctx.obs.registerGauge(p.name + ".mshrs", [this] {
        return static_cast<double>(_mshrs.size());
    });
    ctx.guard.registerInvariant(
        p.name, [this](const guard::InvariantContext &ic,
                       std::vector<std::string> &out) {
            // MESI agreement: the tile fetches exclusively, so every
            // quiesced resident line must be recorded as owned by
            // this agent at the host directory.
            _tags.forEachValid([&](const mem::CacheLine &l) {
                if (!_llc.dirBusy(l.pline) &&
                    !_llc.isOwner(_agentId, l.pline)) {
                    std::ostringstream os;
                    os << "resident line not owned per directory @ "
                          "0x"
                       << std::hex << l.lineAddr << " (pa 0x"
                       << l.pline << ")";
                    out.push_back(os.str());
                }
            });
            if (ic.atEnd && _mshrs.size() != 0) {
                out.push_back("leaked MSHRs at end-of-sim: " +
                              std::to_string(_mshrs.size()));
            }
        });
}

void
L1xHost::bookAccess(bool is_write)
{
    _ctx.energy.add(_ecL1x, is_write ? _fig.writePj : _fig.readPj);
    ++(is_write ? _writes : _reads);
}

bool
L1xHost::fetch(Addr vline, Pid pid, mem::MshrFile::Target replay)
{
    if (!_mshrs.allocate(vline, pid, std::move(replay)))
        return false;
    Tick t0 = _ctx.now();
    // The TLB sits on the L1X miss path: translate before entering
    // the host tile's physical address space (Section 3.2).
    _tlb.translate(pid, vline, [this, vline, pid, t0](Addr pa) {
        Addr pline = lineAlign(pa);
        // Synonym filter (Appendix): if the physical line is already
        // cached in the tile under a different virtual address,
        // evict the duplicate so at most one synonym is resident.
        auto syn = _rmap.probeForSynonym(pline);
        if (syn && (syn->vline != vline || syn->pid != pid)) {
            ++_synonymEvictions;
            if (mem::CacheLine *dup = _tags.find(syn->vline, syn->pid))
                evict(*dup);
        }
        // The tile always requests exclusivity: M/E/I states only.
        _llc.request(_agentId, pline, CoherenceReq::GetX,
                     [this, vline, pid, pline,
                      t0](const host::LlcResponse &) {
                         install(vline, pid, pline, t0);
                     });
    });
    return true;
}

void
L1xHost::install(Addr vline, Pid pid, Addr pline, Tick t0)
{
    mem::CacheLine *way = _tags.victim(vline, _evictable);
    if (!way) {
        ++_frameRetries;
        _ctx.eq.scheduleIn(16, [this, vline, pid, pline, t0] {
            install(vline, pid, pline, t0);
        });
        return;
    }
    if (way->valid) {
        ++_evictions;
        evict(*way);
    }
    _tags.install(*way, vline, pid);
    way->mesi = MesiState::E;
    way->pline = pline;
    _rmap.insert(pline, vline, pid);
    bookAccess(true); // fill write
    if (_fillLatency)
        _fillLatency->sample(static_cast<double>(_ctx.now() - t0));
    _mshrs.complete(vline, pid);
}

void
L1xHost::evict(mem::CacheLine &line)
{
    if (line.dirty) {
        _llc.writebackData(_agentId, line.pline);
    } else {
        _llc.evictNotice(_agentId, line.pline);
    }
    drop(line);
}

mem::CacheLine *
L1xHost::resolve(Addr pa)
{
    ++_fwdRecv;
    auto entry = _rmap.lookup(pa);
    return entry ? _tags.find(entry->vline, entry->pid) : nullptr;
}

void
L1xHost::drop(mem::CacheLine &line)
{
    _rmap.erase(line.pline);
    _tags.invalidate(line);
}

} // namespace fusion::accel
