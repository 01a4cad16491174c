#include "accel/l0x.hh"

#include <sstream>

#include "energy/sram_model.hh"
#include "sim/logging.hh"

namespace fusion::accel
{

using interconnect::MsgClass;

namespace
{
/// Word-granularity accelerator accesses cost a fraction of a full
/// line read (only one subarray word line fires).
constexpr double kWordAccessScale = 0.5;

/** Render sorted line addresses as "[0x40,0x80,...]". */
std::string
hexLines(const std::vector<Addr> &lines)
{
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < lines.size(); ++i)
        os << (i ? "," : "") << "0x" << std::hex << lines[i];
    os << ']';
    return os.str();
}
} // namespace

L0x::L0x(SimContext &ctx, const L0xParams &p, L1xAcc &l1x,
         interconnect::Link *tile_link, interconnect::Link *fwd_link)
    : _ctx(ctx), _p(p), _l1x(l1x), _tileLink(tile_link),
      _fwdLink(fwd_link),
      _tags(mem::CacheGeometry{p.capacityBytes, p.assoc, kLineBytes,
                               p.repl})
{
    energy::SramParams sp;
    sp.capacityBytes = p.capacityBytes;
    sp.assoc = p.assoc;
    sp.banks = 1;
    sp.kind = energy::SramKind::TimestampCache;
    _fig = energy::evaluateSram(sp);
    _ecL0x = ctx.energy.component(energy::comp::kL0x);
    _setWbTime.assign(_tags.numSets(), kTickNever);
    ctx.stats.counters(p.name, {{"reads", _reads},
                                {"writes", _writes},
                                {"hits", _hits},
                                {"load_misses", _loadMisses},
                                {"store_misses", _storeMisses},
                                {"fills", _fills},
                                {"forward_fills", _forwardFills},
                                {"evictions", _evictions},
                                {"downgrade_sweeps", _downgradeSweeps},
                                {"writebacks", _writebacks},
                                {"forwards_out", _forwardsOut},
                                {"forwards_in", _forwardsIn},
                                {"forwards_rejected", _forwardsRejected}});
    _stAccessLatency =
        &ctx.stats.histogram(p.name + ".access_latency", 0, 64, 16);
    _stHitLatency =
        &ctx.stats.histogram(p.name + ".hit_latency", 0, 16, 16);
    _stMissLatency =
        &ctx.stats.histogram(p.name + ".miss_latency", 0, 512, 32);
    _stWbDelay = &ctx.stats.histogram(p.name + ".wb_delay", 0, 512, 32);

    _tracer = ctx.obs.tracer();
    if (_tracer)
        _track = _tracer->registerTrack(p.name);
    ctx.obs.registerGauge(p.name + ".mshrs", [this] {
        return static_cast<double>(_mshrs.size());
    });
    ctx.obs.registerCounter(p.name + ".misses", [this] {
        return static_cast<double>(misses());
    });

    ctx.guard.registerSnapshot(p.name, [this] {
        guard::ComponentState s;
        s.outstanding = _mshrs.size();
        if (_mshrs.size() != 0)
            s.detail = "mshr_lines=" + hexLines(_mshrs.pendingLines());
        return s;
    });
    ctx.guard.registerInvariant(
        p.name,
        [this](const guard::InvariantContext &ic,
               std::vector<std::string> &out) {
            if (!ic.atEnd)
                return;
            // End-of-sim: every miss completed and every write
            // epoch expired + wrote back (MSHR/writeback leaks).
            if (_mshrs.size() != 0) {
                out.push_back(
                    "leaked MSHRs at end-of-sim: " +
                    hexLines(_mshrs.pendingLines()));
            }
            _tags.forEachValid([&](const mem::CacheLine &l) {
                if (l.dirty) {
                    out.push_back(
                        "dirty line at end-of-sim: " +
                        hexLines({l.lineAddr}));
                }
            });
        });
}

void
L0x::setFunction(Cycles lease_len, Pid pid)
{
    fusion_assert(lease_len > 0, "zero lease length");
    _leaseLen = lease_len;
    _pid = pid;
}

void
L0x::setForwardTargets(
    const std::unordered_map<Addr, L0x *> *targets)
{
    _fwdTargets = targets;
}

void
L0x::bookAccess(bool is_write, bool line_granular)
{
    double pj = is_write ? _fig.writePj : _fig.readPj;
    if (!line_granular)
        pj *= kWordAccessScale;
    _ctx.energy.add(_ecL0x, pj);
    ++(is_write ? _writes : _reads);
}

void
L0x::access(Addr va, std::uint32_t size, bool is_write,
            PortDone done)
{
    (void)size; // sub-line accesses never straddle lines in traces
    Addr vline = lineAlign(va);
    bookAccess(is_write, false);
    Tick start = _ctx.now();
    if (_tracer)
        _tracer->begin(_track, obs::SpanKind::Access, vline, start);
    _ctx.eq.scheduleIn(_fig.latency, [this, vline, is_write, start, done] {
        lookup(vline, is_write, start, done);
    });
}

void
L0x::lookup(Addr vline, bool is_write, Tick start, PortDone done,
            bool is_retry)
{
    Tick now = _ctx.now();
    mem::CacheLine *line = _tags.find(vline, _pid);
    bool lease_valid =
        line && (line->ltime >= now || line->wepochEnd >= now);

    // The access commits: sample its latencies, end its span.
    auto finish = [&] {
        _stAccessLatency->sample(static_cast<double>(now - start));
        (is_retry ? _stMissLatency : _stHitLatency)
            ->sample(static_cast<double>(now - start));
        if (_tracer)
            _tracer->end(_track, obs::SpanKind::Access, vline, now);
        done();
    };

    if (!is_write) {
        if (lease_valid) {
            if (!is_retry)
                ++_hits;
            _tags.touch(*line);
            finish();
            return;
        }
    } else {
        if (_p.writeThrough) {
            // Write-through: update any local copy, push the word
            // to the L1X (Table 4), complete immediately.
            if (lease_valid)
                _tags.touch(*line);
            Addr wt_line = vline;
            _tileLink->send(MsgClass::Data, _tileLink->latency(),
                            [this, wt_line] {
                _l1x.writeThroughStore(_p.accel, wt_line, _pid);
            });
            finish();
            return;
        }
        if (line && line->wepochEnd >= now) {
            // Store hit under our write epoch.
            if (!is_retry)
                ++_hits;
            _tags.touch(*line);
            line->dirty = true;
            noteWriteEpoch(vline, line->wepochEnd);
            finish();
            return;
        }
    }

    // Miss (or store without a write epoch): go to the L1X.
    if (!is_retry)
        ++(is_write ? _storeMisses : _loadMisses);
    bool need_data = !lease_valid;
    bool primary = _mshrs.allocate(
        vline, [this, vline, is_write, start, done] {
            lookup(vline, is_write, start, done, true);
        });
    if (primary) {
        if (_tracer)
            _tracer->phase(_track, obs::SpanKind::Access, vline,
                           "miss", now);
        requestMiss(vline, is_write, need_data);
    }
}

void
L0x::requestMiss(Addr vline, bool is_write, bool need_data)
{
    // Fault injection: swallow the request after booking the MSHR,
    // leaving the miss permanently in flight (watchdog test).
    if (_ctx.guard.fireFault(guard::FaultKind::LeakMshr))
        return;
    // Request message crosses the L0X->L1X link.
    _tileLink->send(
        MsgClass::Control, _tileLink->latency(),
        [this, vline, is_write, need_data] {
            _l1x.requestLease(
                _p.accel, vline, _pid, _leaseLen, is_write,
                need_data,
                [this, vline, is_write](const LeaseGrant &g) {
                    onGrant(vline, is_write, g.leaseEnd);
                });
        });
}

void
L0x::onGrant(Addr vline, bool is_write, Tick lease_end)
{
    mem::CacheLine *line = _tags.find(vline, _pid);
    if (!line) {
        line = allocateFrame(vline);
        ++_fills;
        bookAccess(true, true); // line fill
    }
    if (lease_end > line->ltime)
        line->ltime = lease_end;
    if (is_write)
        line->wepochEnd = lease_end;
    // Fault injection: hold the line past the granted lease, a
    // direct ACC lease-validity violation (invariant test).
    if (_ctx.guard.fireFault(guard::FaultKind::CorruptLease))
        line->ltime += _ctx.guard.faultDelay();
    _tags.touch(*line);
    _mshrs.complete(vline);
    _ctx.guard.noteProgress();
}

mem::CacheLine *
L0x::allocateFrame(Addr vline)
{
    mem::CacheLine *way = _tags.victim(vline);
    fusion_assert(way, "L0X victim selection failed");
    if (way->valid) {
        ++_evictions;
        if (way->dirty) {
            // Early self-downgrade on capacity eviction.
            emitDirtyLine(*way);
        }
        _tags.invalidate(*way);
    }
    _tags.install(*way, vline, _pid);
    return way;
}

void
L0x::noteWriteEpoch(Addr vline, Tick epoch_end)
{
    std::uint32_t set = _tags.setIndex(vline);
    if (epoch_end < _setWbTime[set])
        _setWbTime[set] = epoch_end;
    scheduleDowngrade(epoch_end);
}

void
L0x::scheduleDowngrade(Tick when)
{
    if (when >= _nextDowngrade)
        return;
    _nextDowngrade = when;
    _ctx.eq.schedule(when, [this] { downgradeSweep(); },
                     EventPriority::Maintenance);
}

void
L0x::downgradeSweep()
{
    Tick now = _ctx.now();
    if (now < _nextDowngrade)
        return; // superseded by an earlier sweep
    _nextDowngrade = kTickNever;
    ++_downgradeSweeps;

    Tick next = kTickNever;
    for (std::uint32_t set = 0; set < _tags.numSets(); ++set) {
        if (_setWbTime[set] > now) {
            next = std::min(next, _setWbTime[set]);
            continue; // filtered: no expired epoch in this set
        }
        Tick set_next = kTickNever;
        _tags.forEachValidInSet(set, [&](mem::CacheLine &l) {
            if (!l.dirty)
                return;
            if (l.wepochEnd <= now) {
                emitDirtyLine(l);
            } else {
                set_next = std::min(set_next, l.wepochEnd);
            }
        });
        _setWbTime[set] = set_next;
        next = std::min(next, set_next);
    }
    if (next != kTickNever)
        scheduleDowngrade(next);
}

void
L0x::emitDirtyLine(mem::CacheLine &line, bool allow_forward)
{
    Addr vline = line.lineAddr;
    Pid pid = line.pid;
    bookAccess(false, true); // read the line out of the array
    if (line.wepochEnd > 0 && _ctx.now() >= line.wepochEnd) {
        // How long the dirty line lingered past its write epoch
        // before the self-downgrade reached it.
        _stWbDelay->sample(
            static_cast<double>(_ctx.now() - line.wepochEnd));
    }

    // Forwarding happens only at end-of-invocation self-eviction
    // (Figure 5: the producer forwards when it completes
    // processing). Mid-run epoch expiries and capacity evictions
    // write back normally — a mid-run push would let the
    // producer's own later accesses stall on the lease it just
    // transferred.
    const auto *targets = allow_forward ? _fwdTargets : nullptr;
    if (targets) {
        auto it = targets->find(vline);
        if (it != targets->end() && it->second != this &&
            it->second->canAcceptForward(vline)) {
            // FUSION-Dx: push the dirty line straight to the
            // consumer, notify the L1X with a 1-flit lease transfer.
            ++_forwardsOut;
            L0x *consumer = it->second;
            fusion_assert(_fwdLink, "forwarding without a fwd link");
            Tick lease_end = _ctx.now() + consumer->_leaseLen;
            _fwdLink->send(MsgClass::Data, _fwdLink->latency(),
                           [consumer, vline, pid, lease_end] {
                               consumer->receiveForward(
                                   vline, pid, lease_end, true);
                           });
            _tileLink->send(MsgClass::Control, _tileLink->latency(),
                            [this, vline, pid, lease_end] {
                                _l1x.leaseTransfer(vline, pid,
                                                   lease_end,
                                                   true);
                            });
            line.dirty = false;
            line.wepochEnd = 0;
            // Self-eviction: the producer's copy is gone.
            _tags.invalidate(line);
            return;
        }
    }

    // Fault injection: clean the local copy but never send the
    // writeback, leaving the L1X write-epoch lock held forever.
    if (_ctx.guard.fireFault(guard::FaultKind::DropWriteback)) {
        line.dirty = false;
        line.wepochEnd = 0;
        return;
    }

    ++_writebacks;
    _tileLink->send(MsgClass::Data, _tileLink->latency(),
                    [this, vline, pid] {
        _l1x.writeback(_p.accel, vline, pid);
    });
    line.dirty = false;
    line.wepochEnd = 0;
}

void
L0x::forwardPlannedLines()
{
    if (!_fwdTargets)
        return;
    _tags.forEachValid([this](mem::CacheLine &l) {
        auto it = _fwdTargets->find(l.lineAddr);
        if (it == _fwdTargets->end() || it->second == this)
            return;
        if (l.dirty) {
            emitDirtyLine(l, true);
            return;
        }
        // Clean (possibly lease-expired) planned line: the trace
        // analysis guarantees the next toucher is the consumer, so
        // the producer's copy is still the freshest — push it with
        // a fresh read lease. No write responsibility moves, so
        // the L1X only extends the lease (no lock).
        L0x *consumer = it->second;
        if (!consumer->canAcceptForward(l.lineAddr))
            return;
        ++_forwardsOut;
        fusion_assert(_fwdLink, "forwarding without a fwd link");
        Addr vline = l.lineAddr;
        Pid pid = l.pid;
        bookAccess(false, true);
        Tick lease_end = _ctx.now() + consumer->_leaseLen;
        _fwdLink->send(MsgClass::Data, _fwdLink->latency(),
                       [consumer, vline, pid, lease_end] {
                           consumer->receiveForward(
                               vline, pid, lease_end, false);
                       });
        _tileLink->send(MsgClass::Control, _tileLink->latency(),
                        [this, vline, pid, lease_end] {
                            _l1x.leaseTransfer(vline, pid,
                                               lease_end, false);
                        });
        _tags.invalidate(l); // self-eviction
    });
}

bool
L0x::canAcceptForward(Addr vline) const
{
    Tick now = _ctx.now();
    auto *self = const_cast<L0x *>(this);
    mem::CacheLine *way = self->_tags.victim(
        vline, [now](const mem::CacheLine &l) {
            return !l.dirty && l.ltime < now && l.wepochEnd < now;
        });
    return way != nullptr;
}

void
L0x::receiveForward(Addr vline, Pid pid, Tick lease_end,
                    bool dirty)
{
    mem::CacheLine *line = _tags.find(vline, pid);
    if (!line) {
        Tick now = _ctx.now();
        mem::CacheLine *way = _tags.victim(
            vline, [now](const mem::CacheLine &l) {
                return !l.dirty && l.ltime < now &&
                       l.wepochEnd < now;
            });
        if (!way) {
            // The set filled between the producer's probe and the
            // push landing: degrade to a normal writeback so the
            // dirty data reaches the L1X.
            ++_forwardsRejected;
            _tileLink->send(MsgClass::Data, _tileLink->latency(),
                            [this, vline, pid] {
                                _l1x.writeback(_p.accel, vline,
                                               pid);
                            });
            return;
        }
        if (way->valid)
            ++_evictions;
        _tags.install(*way, vline, pid);
        line = way;
        ++_forwardFills;
    }
    ++_forwardsIn;
    bookAccess(true, true);
    line->ltime = std::max(line->ltime, lease_end);
    _tags.touch(*line);
    if (dirty) {
        line->wepochEnd = lease_end;
        line->dirty = true;
        noteWriteEpoch(vline, lease_end);
    }
}

void
L0x::drainDirty()
{
    _tags.forEachValid([this](mem::CacheLine &l) {
        if (l.dirty)
            emitDirtyLine(l);
    });
}

} // namespace fusion::accel
