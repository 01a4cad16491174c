#include "accel/l1x.hh"

#include <sstream>

#include "sim/logging.hh"

namespace fusion::accel
{

using coherence::FwdKind;
using interconnect::MsgClass;
using mem::MesiState;

L1xAcc::L1xAcc(SimContext &ctx, const L1xParams &p, host::Llc &llc,
               interconnect::Link *tile_link,
               interconnect::Link *llc_link, vm::AxTlb &tlb,
               vm::AxRmap &rmap)
    : _ctx(ctx), _name(p.name), _tileLink(tile_link),
      _host(ctx, p, energy::SramKind::TimestampCache, *this, llc,
            llc_link, tlb, rmap,
            // Leased lines are pinned: the L1X must stay inclusive
            // of every outstanding lease.
            [&ctx](const mem::CacheLine &l) {
                return !l.locked && l.gtime <= ctx.now();
            },
            &ctx.stats.histogram(p.name + ".fill_latency", 0, 1024,
                                 32)),
      _banks(p.banks, 1)
{
    ctx.stats.counters(p.name, {{"hits", _hits},
                                {"misses", _misses},
                                {"bank_conflicts", _bankConflicts},
                                {"stalls_on_write_epoch", _stallsOnWriteEpoch},
                                {"write_epochs", _writeEpochs},
                                {"read_leases", _readLeases},
                                {"l0x_writebacks", _l0xWritebacks},
                                {"lease_transfers", _leaseTransfers},
                                {"write_through_stores", _writeThroughStores},
                                {"fwd_stalled_on_gtime", _fwdStalledOnGtime}});
    _stFwdLatency =
        &ctx.stats.histogram(p.name + ".fwd_latency", 0, 1024, 32);

    _tracer = ctx.obs.tracer();
    if (_tracer)
        _track = _tracer->registerTrack(p.name);
    ctx.obs.registerGauge(p.name + ".stalled", [this] {
        return static_cast<double>(_stalled.targets());
    });
    ctx.obs.registerGauge(p.name + ".wb_buffer", [this] {
        return static_cast<double>(_wbBuffer.size());
    });
    ctx.obs.registerGauge(p.name + ".locked_lines", [this] {
        std::uint64_t locked = 0;
        _host.tags().forEachValid([&](const mem::CacheLine &l) {
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
        s.outstanding = _host.mshrs() + stalled + _wbBuffer.size();
        if (s.outstanding != 0) {
            std::ostringstream os;
            os << "mshrs=" << _host.mshrs() << " stalled=" << stalled
               << " wbbuf=" << _wbBuffer.size();
            s.detail = os.str();
        }
        return s;
    });
    ctx.guard.registerInvariant(
        _name,
        [this](const guard::InvariantContext &ic,
               std::vector<std::string> &out) {
            // A locked line's write epoch is covered by the lease
            // the L1X granted (GTIME bounds every copy).
            std::uint64_t locked = 0;
            _host.tags().forEachValid([&](const mem::CacheLine &l) {
                if (!l.locked)
                    return;
                ++locked;
                if (l.gtime < l.wepochEnd) {
                    std::ostringstream os;
                    os << "write epoch beyond GTIME @ 0x" << std::hex
                       << l.lineAddr;
                    out.push_back(os.str());
                }
            });
            if (!ic.atEnd)
                return;
            if (locked != 0) {
                out.push_back(
                    std::to_string(locked) +
                    " line(s) still write-locked at end-of-sim");
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
L1xAcc::requestLease(AccelId who, Addr vline, Pid pid,
                     Cycles lease_len, bool is_write, bool need_data,
                     LeaseDone done)
{
    vline = lineAlign(vline);
    _host.bookAccess(false);
    if (_tracer)
        _tracer->begin(_track, obs::SpanKind::Lease, vline,
                       _ctx.now());
    // Bank conflicts serialize concurrent requests (16 banks,
    // line interleaved).
    Cycles bank_delay = _banks.reserve(vline, _ctx.now());
    if (bank_delay > 0)
        ++_bankConflicts;
    _ctx.eq.scheduleIn(_host.latency() + bank_delay,
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
    mem::CacheLine *line = _host.tags().find(vline, pid);
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
    bool primary = _host.fetch(
        vline, pid,
        [this, who, vline, pid, lease_len, is_write, need_data,
         done = std::move(done)]() mutable {
            processLease(who, vline, pid, lease_len, is_write,
                         need_data, std::move(done), true);
        });
    if (primary && _tracer)
        _tracer->phase(_track, obs::SpanKind::Lease, vline, "miss",
                       _ctx.now());
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
    _host.tags().touch(line);
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
    _host.bookAccess(true);
    ++_l0xWritebacks;
    mem::CacheLine *line = _host.tags().find(vline, pid);
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
    mem::CacheLine *line = _host.tags().find(vline, pid);
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
    _host.bookAccess(true);
    ++_writeThroughStores;
    mem::CacheLine *line = _host.tags().find(vline, pid);
    if (line) {
        line->dirty = true;
        line->mesi = MesiState::M;
        return;
    }
    // Write-allocate through the regular miss path.
    _host.fetch(vline, pid, [] {});
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
    mem::CacheLine *line = _host.resolve(pa);
    if (!line) {
        done(false, false);
        return;
    }
    // Evict into the writeback buffer; the PUTX response stalls
    // until GTIME expires (Figure 4, right). The L0Xs are never
    // probed.
    _host.bookAccess(false);
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
    _host.drop(*line);
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

} // namespace fusion::accel
