#include "host/host_l1.hh"

#include <sstream>
#include <vector>

#include "energy/sram_model.hh"
#include "sim/logging.hh"

namespace fusion::host
{

using coherence::CoherenceReq;
using coherence::FwdKind;
using mem::MesiState;

HostL1::HostL1(SimContext &ctx, const HostL1Params &p, Llc &llc,
               interconnect::Link *llc_link)
    : _ctx(ctx), _name(p.name), _llc(llc),
      _tags(mem::CacheGeometry{p.capacityBytes, p.assoc, kLineBytes}),
      _banks(p.banks, 1),
      _energyComponent(ctx.energy.component(
          p.energyComponent.empty() ? energy::comp::kHostL1
                                    : p.energyComponent))
{
    energy::SramParams sp;
    sp.capacityBytes = p.capacityBytes;
    sp.assoc = p.assoc;
    sp.banks = p.banks;
    sp.kind = energy::SramKind::Cache;
    _fig = energy::evaluateSram(sp);
    _wordAccessScale = p.wordAccessScale;
    _agentId = llc.registerAgent(this, llc_link, p.ringNode);
    ctx.stats.counters(p.name, {{"reads", _reads},
                                {"writes", _writes},
                                {"hits", _hits},
                                {"misses", _misses},
                                {"upgrades", _upgrades},
                                {"bank_conflicts", _bankConflicts},
                                {"evictions", _evictions},
                                {"fwd_recv", _fwdRecv}});
    _stMissLatency =
        &ctx.stats.histogram(p.name + ".miss_latency", 0, 1024, 32);

    ctx.obs.registerGauge(p.name + ".mshrs", [this] {
        return static_cast<double>(_mshrs.size());
    });
    ctx.obs.registerCounter(p.name + ".misses", [this] {
        return static_cast<double>(misses());
    });

    ctx.guard.registerSnapshot(_name, [this] {
        guard::ComponentState s;
        s.outstanding = _mshrs.size();
        if (s.outstanding != 0)
            s.detail = "mshrs=" + std::to_string(_mshrs.size());
        return s;
    });
    ctx.guard.registerInvariant(
        _name,
        [this](const guard::InvariantContext &ic,
               std::vector<std::string> &out) {
            // MESI agreement: every quiesced resident line must be
            // recorded at the directory with a compatible state.
            _tags.forEachValid([&](const mem::CacheLine &l) {
                if (_llc.dirBusy(l.lineAddr))
                    return;
                bool excl = l.mesi == mem::MesiState::M ||
                            l.mesi == mem::MesiState::E;
                bool ok = excl
                              ? _llc.isOwner(_agentId, l.lineAddr)
                              : (_llc.isSharer(_agentId, l.lineAddr) ||
                                 _llc.isOwner(_agentId, l.lineAddr));
                if (!ok) {
                    std::ostringstream os;
                    os << "resident line not in directory @ 0x"
                       << std::hex << l.lineAddr;
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
HostL1::bookAccess(bool is_write, double scale)
{
    _ctx.energy.add(_energyComponent,
                    (is_write ? _fig.writePj : _fig.readPj) * scale);
    ++(is_write ? _writes : _reads);
}

void
HostL1::access(Addr pa, bool is_write, AccessDone done)
{
    Addr line_addr = lineAlign(pa);
    bookAccess(is_write, _wordAccessScale);
    Cycles bank_delay = _banks.reserve(line_addr, _ctx.now());
    if (bank_delay > 0)
        ++_bankConflicts;
    _ctx.eq.scheduleIn(_fig.latency + bank_delay,
                       [this, line_addr, is_write, done] {
                           lookup(line_addr, is_write, done);
                       });
}

void
HostL1::lookup(Addr line_addr, bool is_write, AccessDone done,
               bool is_retry)
{
    mem::CacheLine *line = _tags.find(line_addr);
    if (line) {
        bool hit = !is_write || line->mesi == MesiState::M ||
                   line->mesi == MesiState::E;
        if (hit) {
            if (!is_retry)
                ++_hits;
            _tags.touch(*line);
            if (is_write) {
                line->mesi = MesiState::M;
                line->dirty = true;
            }
            done();
            return;
        }
    }
    // Miss, or a store to a Shared line (upgrade); either retries
    // the lookup once the request completes.
    if (!is_retry)
        ++(line ? _upgrades : _misses);
    bool primary = _mshrs.allocate(
        line_addr, [this, line_addr, is_write, done] {
            lookup(line_addr, is_write, done, true);
        });
    if (primary) {
        CoherenceReq kind = !is_write ? CoherenceReq::GetS
                                      : (line ? CoherenceReq::Upgrade
                                              : CoherenceReq::GetX);
        Tick t0 = _ctx.now();
        _llc.request(_agentId, line_addr, kind,
                     [this, line_addr, is_write,
                      t0](const LlcResponse &r) {
                         _stMissLatency->sample(
                             static_cast<double>(_ctx.now() - t0));
                         fillDone(line_addr, is_write, r.exclusive);
                     });
    }
}

mem::CacheLine *
HostL1::allocateFrame(Addr line_addr)
{
    mem::CacheLine *way = _tags.victim(line_addr);
    fusion_assert(way, "L1 victim selection failed");
    if (way->valid) {
        ++_evictions;
        if (way->dirty || way->mesi == MesiState::M) {
            _llc.writebackData(_agentId, way->lineAddr);
        } else {
            _llc.evictNotice(_agentId, way->lineAddr);
        }
    }
    _tags.install(*way, line_addr);
    bookAccess(true); // fill writes the array
    return way;
}

void
HostL1::fillDone(Addr line_addr, bool is_write, bool exclusive)
{
    mem::CacheLine *line = _tags.find(line_addr);
    if (!line)
        line = allocateFrame(line_addr);
    if (is_write) {
        line->mesi = MesiState::M;
        line->dirty = true;
    } else {
        line->mesi = exclusive ? MesiState::E : MesiState::S;
    }
    _tags.touch(*line);
    _mshrs.complete(line_addr);
}

void
HostL1::handleFwd(Addr pa, FwdKind kind, FwdDone done)
{
    mem::CacheLine *line = _tags.find(lineAlign(pa));
    if (!line) {
        // Copy already evicted (race with our own writeback).
        done(false, false);
        return;
    }
    bool was_dirty = line->dirty || line->mesi == MesiState::M;
    bool retained = false;
    ++_fwdRecv;
    bookAccess(false);
    if (_ctx.guard.fireFault(guard::FaultKind::StaleHostL1)) {
        // Ack the forward without acting on it: the directory clears
        // this agent while the L1 keeps (and may keep hitting on) a
        // stale copy. Caught by the MESI-agreement invariant on the
        // next sweep.
        done(false, false);
        return;
    }
    switch (kind) {
      case FwdKind::Inv:
      case FwdKind::FwdGetX:
        _tags.invalidate(*line);
        break;
      case FwdKind::FwdGetS:
        line->mesi = MesiState::S;
        line->dirty = false;
        retained = true;
        break;
    }
    done(was_dirty, retained);
}

void
HostL1::flushAll()
{
    _tags.forEachValid([this](mem::CacheLine &l) {
        if (l.dirty || l.mesi == MesiState::M) {
            _llc.writebackData(_agentId, l.lineAddr);
        } else {
            _llc.evictNotice(_agentId, l.lineAddr);
        }
        _tags.invalidate(l);
    });
}

} // namespace fusion::host
