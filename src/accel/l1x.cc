#include "accel/l1x.hh"

#include <sstream>

#include "energy/sram_model.hh"
#include "sim/logging.hh"

namespace fusion::accel
{

using coherence::CoherenceReq;
using coherence::FwdKind;
using interconnect::MsgClass;
using mem::MesiState;

L1xAcc::L1xAcc(SimContext &ctx, const L1xParams &p, host::Llc &llc,
               interconnect::Link *tile_link,
               interconnect::Link *llc_link, vm::AxTlb &tlb,
               vm::AxRmap &rmap)
    : _ctx(ctx), _name(p.name), _llc(llc), _tileLink(tile_link),
      _llcLink(llc_link), _tlb(tlb), _rmap(rmap),
      _tags(mem::CacheGeometry{p.capacityBytes, p.assoc, kLineBytes}),
      _banks(p.banks, 1)
{
    energy::SramParams sp;
    sp.capacityBytes = p.capacityBytes;
    sp.assoc = p.assoc;
    sp.banks = p.banks;
    sp.kind = energy::SramKind::TimestampCache;
    _fig = energy::evaluateSram(sp);
    _ecL1x = ctx.energy.component(energy::comp::kL1x);
    _agentId = llc.registerAgent(this, llc_link, p.ringNode);
    ctx.stats.counters(p.name, {{"reads", _reads},
                                {"writes", _writes},
                                {"hits", _hits},
                                {"misses", _misses},
                                {"bank_conflicts", _bankConflicts},
                                {"stalls_on_write_epoch", _stallsOnWriteEpoch},
                                {"synonym_evictions", _synonymEvictions},
                                {"frame_retries", _frameRetries},
                                {"evictions", _evictions},
                                {"write_epochs", _writeEpochs},
                                {"read_leases", _readLeases},
                                {"l0x_writebacks", _l0xWritebacks},
                                {"lease_transfers", _leaseTransfers},
                                {"write_through_stores", _writeThroughStores},
                                {"fwd_recv", _fwdRecv},
                                {"fwd_stalled_on_gtime", _fwdStalledOnGtime}});
    _stFillLatency =
        &ctx.stats.histogram(p.name + ".fill_latency", 0, 1024, 32);
    _stFwdLatency =
        &ctx.stats.histogram(p.name + ".fwd_latency", 0, 1024, 32);

    _tracer = ctx.obs.tracer();
    if (_tracer)
        _track = _tracer->registerTrack(p.name);
    ctx.obs.registerGauge(p.name + ".mshrs", [this] {
        return static_cast<double>(_mshrs.size());
    });
    ctx.obs.registerGauge(p.name + ".stalled", [this] {
        return static_cast<double>(_stalled.targets());
    });
    ctx.obs.registerGauge(p.name + ".wb_buffer", [this] {
        return static_cast<double>(_wbBuffer.size());
    });
    ctx.obs.registerGauge(p.name + ".locked_lines", [this] {
        std::uint64_t locked = 0;
        _tags.forEachValid([&](const mem::CacheLine &l) {
            if (l.locked)
                ++locked;
        });
        return static_cast<double>(locked);
    });
    ctx.obs.registerCounter(p.name + ".misses", [this] {
        return static_cast<double>(_misses);
    });

    ctx.guard.registerSnapshot(p.name, [this] {
        guard::ComponentState s;
        std::uint64_t stalled = _stalled.targets();
        s.outstanding = _mshrs.size() + stalled + _wbBuffer.size();
        if (s.outstanding != 0) {
            std::ostringstream os;
            os << "mshrs=" << _mshrs.size() << " stalled=" << stalled
               << " wbbuf=" << _wbBuffer.size();
            s.detail = os.str();
        }
        return s;
    });
    ctx.guard.registerInvariant(
        _name,
        [this](const guard::InvariantContext &ic,
               std::vector<std::string> &out) {
            _tags.forEachValid([&](const mem::CacheLine &l) {
                // A locked line's write epoch is covered by the
                // lease the L1X granted (GTIME bounds every copy).
                if (l.locked && l.gtime < l.wepochEnd) {
                    std::ostringstream os;
                    os << "write epoch beyond GTIME @ 0x" << std::hex
                       << l.lineAddr;
                    out.push_back(os.str());
                }
                // MESI agreement: the tile fetches exclusively, so
                // every quiesced resident line must be recorded as
                // owned by this agent at the host directory.
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
            if (!ic.atEnd)
                return;
            std::uint64_t locked = 0;
            _tags.forEachValid([&](const mem::CacheLine &l) {
                if (l.locked)
                    ++locked;
            });
            if (locked != 0) {
                out.push_back(
                    std::to_string(locked) +
                    " line(s) still write-locked at end-of-sim");
            }
            if (_mshrs.size() != 0) {
                out.push_back("leaked MSHRs at end-of-sim: " +
                              std::to_string(_mshrs.size()));
            }
            std::uint64_t stalled = _stalled.targets();
            if (stalled != 0) {
                out.push_back(
                    std::to_string(stalled) +
                    " request(s) still stalled at end-of-sim");
            }
            if (!_wbBuffer.empty()) {
                out.push_back(
                    std::to_string(_wbBuffer.size()) +
                    " writeback-buffer entry(ies) at end-of-sim");
            }
        });
}

void
L1xAcc::bookAccess(bool is_write)
{
    _ctx.energy.add(_ecL1x, is_write ? _fig.writePj : _fig.readPj);
    ++(is_write ? _writes : _reads);
}

void
L1xAcc::requestLease(AccelId who, Addr vline, Pid pid,
                     Cycles lease_len, bool is_write, bool need_data,
                     LeaseDone done)
{
    vline = lineAlign(vline);
    bookAccess(false);
    if (_tracer)
        _tracer->begin(_track, obs::SpanKind::Lease, vline,
                       _ctx.now());
    // Bank conflicts serialize concurrent requests (16 banks,
    // line interleaved).
    Cycles bank_delay = _banks.reserve(vline, _ctx.now());
    if (bank_delay > 0)
        ++_bankConflicts;
    _ctx.eq.scheduleIn(_fig.latency + bank_delay,
                       [this, who, vline, pid, lease_len, is_write,
                        need_data, done = std::move(done)]() mutable {
                           processLease(who, vline, pid, lease_len,
                                        is_write, need_data,
                                        std::move(done));
                       });
}

void
L1xAcc::processLease(AccelId who, Addr vline, Pid pid,
                     Cycles lease_len, bool is_write, bool need_data,
                     LeaseDone done, bool is_retry)
{
    mem::CacheLine *line = _tags.find(vline, pid);
    if (line) {
        if (line->locked) {
            // An un-expired write epoch: stall at the L1X until the
            // epoch's writeback arrives (Section 3.2).
            ++_stallsOnWriteEpoch;
            if (_tracer)
                _tracer->phase(_track, obs::SpanKind::Lease, vline,
                               "stall", _ctx.now());
            DPRINTFN("ACC", "stall vline=", vline, " now=",
                     _ctx.now(), " wepochEnd=", line->wepochEnd,
                     " gtime=", line->gtime, " who=", who);
            _stalled.allocate(
                vline, pid,
                [this, who, vline, pid, lease_len, is_write,
                 need_data, done = std::move(done)]() mutable {
                    processLease(who, vline, pid, lease_len,
                                 is_write, need_data,
                                 std::move(done));
                });
            return;
        }
        if (!is_retry)
            ++_hits;
        grant(*line, lease_len, is_write, need_data,
              std::move(done));
        return;
    }

    // Miss at the L1X: cross to the host tile.
    if (!is_retry)
        ++_misses;
    bool primary = _mshrs.allocate(
        vline, pid,
        [this, who, vline, pid, lease_len, is_write, need_data,
         done = std::move(done)]() mutable {
            processLease(who, vline, pid, lease_len, is_write,
                         need_data, std::move(done), true);
        });
    if (primary) {
        if (_tracer)
            _tracer->phase(_track, obs::SpanKind::Lease, vline,
                           "miss", _ctx.now());
        startFill(vline, pid);
    }
}

void
L1xAcc::startFill(Addr vline, Pid pid)
{
    Tick t0 = _ctx.now();
    // The TLB sits on the L1X miss path: translate before entering
    // the host tile's physical address space (Section 3.2).
    _tlb.translate(pid, vline, [this, vline, pid, t0](Addr pa) {
        Addr pline = lineAlign(pa);
        // Synonym filter (Appendix): if the physical line is already
        // cached in the tile under a different virtual address,
        // evict the duplicate so at most one synonym is resident.
        if (auto syn = _rmap.probeForSynonym(pline)) {
            if (syn->vline != vline || syn->pid != pid) {
                ++_synonymEvictions;
                mem::CacheLine *dup = _tags.find(syn->vline,
                                                 syn->pid);
                if (dup) {
                    if (dup->dirty) {
                        _llc.writebackData(_agentId, dup->pline);
                    } else {
                        _llc.evictNotice(_agentId, dup->pline);
                    }
                    _rmap.erase(dup->pline);
                    _tags.invalidate(*dup);
                }
            }
        }
        // The tile always requests exclusivity: M/E/I states only.
        _llc.request(_agentId, pline, CoherenceReq::GetX,
                     [this, vline, pid, pline,
                      t0](const host::LlcResponse &) {
                         finishFill(vline, pid, pline, t0);
                     });
    });
}

void
L1xAcc::finishFill(Addr vline, Pid pid, Addr pline, Tick t0)
{
    allocateFrame(vline, pid, pline, [this, vline, pid, pline, t0]() {
        mem::CacheLine *line = _tags.find(vline, pid);
        fusion_assert(line, "fill lost its frame");
        line->mesi = MesiState::E;
        line->pline = pline;
        _rmap.insert(pline, vline, pid);
        bookAccess(true); // fill write
        _stFillLatency->sample(static_cast<double>(_ctx.now() - t0));
        _mshrs.complete(vline, pid);
    });
}

void
L1xAcc::allocateFrame(Addr vline, Pid pid, Addr pline,
                      sim::SmallFn<void()> installed)
{
    Tick now = _ctx.now();
    mem::CacheLine *victim = _tags.victim(
        vline, [now](const mem::CacheLine &l) {
            // Leased lines are pinned: the L1X must stay inclusive
            // of every outstanding lease.
            return !l.locked && l.gtime <= now;
        });
    if (!victim) {
        ++_frameRetries;
        _ctx.eq.scheduleIn(
            16, [this, vline, pid, pline,
                 installed = std::move(installed)]() mutable {
                allocateFrame(vline, pid, pline,
                              std::move(installed));
            });
        return;
    }
    if (victim->valid) {
        ++_evictions;
        _rmap.erase(victim->pline);
        if (victim->dirty) {
            _llc.writebackData(_agentId, victim->pline);
        } else {
            _llc.evictNotice(_agentId, victim->pline);
        }
    }
    _tags.install(*victim, vline, pid);
    installed();
}

void
L1xAcc::grant(mem::CacheLine &line, Cycles lease_len, bool is_write,
              bool need_data, LeaseDone done)
{
    Tick end = _ctx.now() + lease_len;
    if (end > line.gtime)
        line.gtime = end;
    if (is_write) {
        line.locked = true;
        line.wepochEnd = end;
        ++_writeEpochs;
    } else {
        ++_readLeases;
    }
    _tags.touch(line);
    if (_tracer) {
        // Span covers request arrival -> grant issue; the response
        // hop is accounted in the L0X access span.
        _tracer->end(_track, obs::SpanKind::Lease, line.lineAddr,
                     _ctx.now());
    }
    // Response to the L0X: data for fills, 1-flit grant otherwise.
    Cycles resp_lat = _tileLink->latency();
    // Fault injection: hold one grant response back (no-progress
    // detector test).
    if (_ctx.guard.fireFault(guard::FaultKind::DelayGrant))
        resp_lat += _ctx.guard.faultDelay();
    _tileLink->send(need_data ? MsgClass::Data : MsgClass::Control,
                    resp_lat,
                    [end, done = std::move(done)]() mutable {
                        done(LeaseGrant{end});
                    });
}

void
L1xAcc::writeback(AccelId who, Addr vline, Pid pid)
{
    (void)who;
    vline = lineAlign(vline);
    bookAccess(true);
    ++_l0xWritebacks;
    mem::CacheLine *line = _tags.find(vline, pid);
    if (line) {
        line->dirty = true;
        line->mesi = MesiState::M;
        line->locked = false;
        line->wepochEnd = 0;
        wakeStalled(vline, pid);
        return;
    }
    // The line was moved to the writeback buffer by a host demand.
    for (auto it = _wbBuffer.begin(); it != _wbBuffer.end(); ++it) {
        if (it->vline == vline && it->pid == pid) {
            it->dirty = true;
            it->awaitingL0xWb = false;
            tryRespondWbBuf(it->id);
            return;
        }
    }
    fusion_warn("orphan L0X writeback for vline=", vline);
}

void
L1xAcc::leaseTransfer(Addr vline, Pid pid, Tick new_end, bool dirty)
{
    vline = lineAlign(vline);
    ++_leaseTransfers;
    mem::CacheLine *line = _tags.find(vline, pid);
    if (!line) {
        fusion_warn("lease transfer for absent line vline=", vline);
        return;
    }
    if (new_end > line->gtime)
        line->gtime = new_end;
    if (dirty) {
        // The dirty copy (and write responsibility) now lives in
        // the consumer's L0X: lock until its writeback arrives.
        line->locked = true;
        line->wepochEnd = new_end;
    }
}

void
L1xAcc::writeThroughStore(AccelId who, Addr vline, Pid pid)
{
    (void)who;
    vline = lineAlign(vline);
    bookAccess(true);
    ++_writeThroughStores;
    mem::CacheLine *line = _tags.find(vline, pid);
    if (line) {
        line->dirty = true;
        line->mesi = MesiState::M;
        return;
    }
    // Write-allocate through the regular miss path.
    bool primary = _mshrs.allocate(vline, pid, [] {});
    if (primary)
        startFill(vline, pid);
}

void
L1xAcc::wakeStalled(Addr vline, Pid pid)
{
    // complete() detaches the queue before replaying, so replays
    // re-stall into a fresh entry if the line locks again.
    if (_stalled.pending(vline, pid))
        _stalled.complete(vline, pid);
}

void
L1xAcc::handleFwd(Addr pa, FwdKind kind, FwdDone done)
{
    (void)kind; // ACC answers every host demand identically.
    ++_fwdRecv;
    auto entry = _rmap.lookup(pa);
    if (!entry) {
        done(false, false);
        return;
    }
    mem::CacheLine *line = _tags.find(entry->vline, entry->pid);
    if (!line) {
        done(false, false);
        return;
    }
    // Evict into the writeback buffer; the PUTX response stalls
    // until GTIME expires (Figure 4, right). The L0Xs are never
    // probed.
    bookAccess(false);
    WbBufEntry w;
    w.id = _nextWbId++;
    w.pline = line->pline;
    w.vline = line->lineAddr;
    w.pid = line->pid;
    w.dirty = line->dirty;
    w.awaitingL0xWb = line->locked;
    w.readyAt = std::max(_ctx.now(), line->gtime);
    w.t0 = _ctx.now();
    w.done = std::move(done);
    if (_tracer)
        _tracer->begin(_track, obs::SpanKind::HostFwd, w.pline,
                       w.t0);
    _rmap.erase(line->pline);
    _tags.invalidate(*line);
    std::uint64_t id = w.id;
    Tick ready_at = w.readyAt;
    _wbBuffer.push_back(std::move(w));
    if (ready_at > _ctx.now()) {
        ++_fwdStalledOnGtime;
        _ctx.eq.schedule(ready_at,
                         [this, id] { tryRespondWbBuf(id); });
    } else {
        tryRespondWbBuf(id);
    }
}

void
L1xAcc::tryRespondWbBuf(std::uint64_t id)
{
    auto it = _wbBuffer.begin();
    while (it != _wbBuffer.end() && it->id != id)
        ++it;
    if (it == _wbBuffer.end())
        return; // already responded via another path
    if (it->awaitingL0xWb || it->readyAt > _ctx.now())
        return;
    _stFwdLatency->sample(static_cast<double>(_ctx.now() - it->t0));
    if (_tracer)
        _tracer->end(_track, obs::SpanKind::HostFwd, it->pline,
                     _ctx.now());
    auto done = std::move(it->done);
    bool dirty = it->dirty;
    _wbBuffer.erase(it);
    // The tile relinquishes: never retains a shared copy.
    done(dirty, false);
}

bool
L1xAcc::hasWbBufferedLine(Addr vline, Pid pid) const
{
    vline = lineAlign(vline);
    for (const auto &w : _wbBuffer) {
        if (w.vline == vline && w.pid == pid)
            return true;
    }
    return false;
}

void
L1xAcc::flushAll()
{
    _tags.forEachValid([this](mem::CacheLine &l) {
        _rmap.erase(l.pline);
        if (l.dirty) {
            _llc.writebackData(_agentId, l.pline);
        } else {
            _llc.evictNotice(_agentId, l.pline);
        }
        _tags.invalidate(l);
    });
}

} // namespace fusion::accel
