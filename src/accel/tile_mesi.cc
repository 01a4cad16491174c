#include "accel/tile_mesi.hh"

#include <sstream>

#include "sim/logging.hh"

namespace fusion::accel
{

using coherence::CoherenceReq;
using coherence::FwdKind;
using interconnect::MsgClass;
using mem::MesiState;

namespace
{
constexpr double kWordAccessScale = 0.5;
} // namespace

// ---------------------------------------------------------------
// L0xMesi
// ---------------------------------------------------------------

L0xMesi::L0xMesi(SimContext &ctx, std::string name,
                 std::uint64_t bytes, std::uint32_t assoc,
                 AccelId id, L1xMesi &l1x,
                 interconnect::Link *tile_link)
    : _ctx(ctx), _name(std::move(name)), _id(id), _l1x(l1x),
      _tileLink(tile_link),
      _tags(mem::CacheGeometry{bytes, assoc, kLineBytes})
{
    energy::SramParams sp;
    sp.capacityBytes = bytes;
    sp.assoc = assoc;
    sp.banks = 1;
    sp.kind = energy::SramKind::Cache; // no timestamp field
    _fig = energy::evaluateSram(sp);
    _ecL0x = ctx.energy.component(energy::comp::kL0x);
    ctx.stats.counters(_name, {{"reads", _reads},
                               {"writes", _writes},
                               {"hits", _hits},
                               {"load_misses", _loadMisses},
                               {"store_misses", _storeMisses},
                               {"evictions", _evictions},
                               {"fills", _fills},
                               {"probes", _probes},
                               {"writebacks", _writebacks}});
    _stAccessLatency =
        &ctx.stats.histogram(_name + ".access_latency", 0, 64, 16);
    _stHitLatency =
        &ctx.stats.histogram(_name + ".hit_latency", 0, 16, 16);
    _stMissLatency =
        &ctx.stats.histogram(_name + ".miss_latency", 0, 512, 32);

    _tracer = ctx.obs.tracer();
    if (_tracer)
        _track = _tracer->registerTrack(_name);
    ctx.obs.registerGauge(_name + ".mshrs", [this] {
        return static_cast<double>(_mshrs.size());
    });
    ctx.obs.registerCounter(_name + ".misses", [this] {
        return static_cast<double>(misses());
    });
    ctx.guard.registerSnapshot(_name, [this] {
        guard::ComponentState s;
        s.outstanding = _mshrs.size();
        if (s.outstanding != 0)
            s.detail = "mshrs=" + std::to_string(_mshrs.size());
        return s;
    });
}

void
L0xMesi::bookAccess(bool is_write, bool line_granular)
{
    double pj = is_write ? _fig.writePj : _fig.readPj;
    if (!line_granular)
        pj *= kWordAccessScale;
    _ctx.energy.add(_ecL0x, pj);
    ++(is_write ? _writes : _reads);
}

void
L0xMesi::access(Addr va, std::uint32_t size, bool is_write,
                PortDone done)
{
    (void)size;
    Addr vline = lineAlign(va);
    bookAccess(is_write, false);
    Tick start = _ctx.now();
    if (_tracer)
        _tracer->begin(_track, obs::SpanKind::Access, vline, start);
    _ctx.eq.scheduleIn(_fig.latency,
                       [this, vline, is_write, start,
                        done = std::move(done)]() mutable {
                           lookup(vline, is_write, start,
                                  std::move(done), false);
                       });
}

void
L0xMesi::lookup(Addr vline, bool is_write, Tick start, PortDone done,
                bool is_retry)
{
    mem::CacheLine *line = _tags.find(vline, _pid);
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
            Tick now = _ctx.now();
            _stAccessLatency->sample(
                static_cast<double>(now - start));
            (is_retry ? _stMissLatency : _stHitLatency)
                ->sample(static_cast<double>(now - start));
            if (_tracer)
                _tracer->end(_track, obs::SpanKind::Access, vline,
                             now);
            done();
            return;
        }
    }
    // Miss or upgrade.
    if (!is_retry)
        ++(is_write ? _storeMisses : _loadMisses);
    bool primary = _mshrs.allocate(
        vline,
        [this, vline, is_write, start,
         done = std::move(done)]() mutable {
            lookup(vline, is_write, start, std::move(done), true);
        });
    if (primary) {
        if (_tracer)
            _tracer->phase(_track, obs::SpanKind::Access, vline,
                           "miss", _ctx.now());
        CoherenceReq kind =
            !is_write ? CoherenceReq::GetS
                      : (line ? CoherenceReq::Upgrade
                              : CoherenceReq::GetX);
        // Request message.
        _tileLink->book(MsgClass::Control);
        _ctx.eq.scheduleIn(
            _tileLink->latency(),
            [this, vline, is_write, kind] {
                _l1x.request(_id, vline, _pid, kind,
                             [this, vline,
                              is_write](bool exclusive) {
                                 fillDone(vline, is_write,
                                          exclusive);
                             });
            });
    }
}

void
L0xMesi::fillDone(Addr vline, bool is_write, bool exclusive)
{
    mem::CacheLine *line = _tags.find(vline, _pid);
    if (!line) {
        mem::CacheLine *way = _tags.victim(vline);
        fusion_assert(way, "L0xMesi victim selection failed");
        if (way->valid) {
            ++_evictions;
            if (way->dirty || way->mesi == MesiState::M) {
                ++_writebacks;
                _tileLink->book(MsgClass::Data);
                Addr wb = way->lineAddr;
                Pid pid = way->pid;
                _ctx.eq.scheduleIn(_tileLink->latency(),
                                   [this, wb, pid] {
                                       _l1x.writeback(_id, wb, pid);
                                   });
            } else {
                _tileLink->book(MsgClass::Control);
                Addr ev = way->lineAddr;
                Pid pid = way->pid;
                _ctx.eq.scheduleIn(_tileLink->latency(),
                                   [this, ev, pid] {
                                       _l1x.evictNotice(_id, ev,
                                                        pid);
                                   });
            }
        }
        _tags.install(*way, vline, _pid);
        line = way;
        ++_fills;
        bookAccess(true, true);
    }
    if (is_write) {
        line->mesi = MesiState::M;
        line->dirty = true;
    } else {
        line->mesi = exclusive ? MesiState::E : MesiState::S;
    }
    _tags.touch(*line);
    _mshrs.complete(vline);
}

void
L0xMesi::handleTileFwd(Addr vline, FwdKind kind,
                       sim::SmallFn<void(bool dirty)> done)
{
    ++_probes;
    bookAccess(false, false); // tag probe energy
    mem::CacheLine *line = _tags.find(lineAlign(vline), _pid);
    if (!line) {
        done(false);
        return;
    }
    bool dirty = line->dirty || line->mesi == MesiState::M;
    switch (kind) {
      case FwdKind::Inv:
      case FwdKind::FwdGetX:
        _tags.invalidate(*line);
        break;
      case FwdKind::FwdGetS:
        line->mesi = MesiState::S;
        line->dirty = false;
        break;
    }
    done(dirty);
}

// ---------------------------------------------------------------
// L1xMesi
// ---------------------------------------------------------------

L1xMesi::L1xMesi(SimContext &ctx, const L1xParams &p, host::Llc &llc,
                 interconnect::Link *tile_link,
                 interconnect::Link *llc_link, vm::AxTlb &tlb,
                 vm::AxRmap &rmap)
    : _ctx(ctx), _name(p.name), _tileLink(tile_link),
      _host(ctx, p, energy::SramKind::Cache, *this, llc, llc_link,
            tlb, rmap,
            // Only untracked lines evict: a busy or cached-below line
            // is skipped, and a set with none retries until an L0X
            // eviction frees one.
            [this](const mem::CacheLine &l) {
                auto it = _dir.find(key(l.lineAddr, l.pid));
                if (it == _dir.end())
                    return true;
                const DirInfo &d = it->second;
                return !d.busy && d.owner < 0 && d.sharers == 0;
            },
            nullptr),
      _banks(p.banks, 1)
{
    ctx.stats.counters(_name, {{"hits", _hits},
                               {"misses", _misses},
                               {"deferred", _deferred},
                               {"probes_sent", _probesSent},
                               {"l0x_writebacks", _l0xWritebacks},
                               {"evict_notices", _evictNotices}});

    _tracer = ctx.obs.tracer();
    if (_tracer)
        _track = _tracer->registerTrack(_name);
    ctx.obs.registerGauge(_name + ".dir_busy", [this] {
        std::uint64_t busy = 0;
        for (const auto &[k, d] : _dir)
            busy += d.busy ? 1 : 0;
        return static_cast<double>(busy);
    });
    ctx.obs.registerCounter(_name + ".misses", [this] {
        return static_cast<double>(_misses);
    });
    ctx.guard.registerSnapshot(_name, [this] {
        guard::ComponentState s;
        std::uint64_t busy = 0;
        std::uint64_t deferred = 0;
        for (const auto &[k, d] : _dir) {
            busy += d.busy ? 1 : 0;
            deferred += d.deferred.size();
        }
        s.outstanding = _host.mshrs() + deferred;
        if (s.outstanding != 0) {
            std::ostringstream os;
            os << "mshrs=" << _host.mshrs() << " busy=" << busy
               << " deferred=" << deferred
               << " frame_retries=" << _host.frameRetries();
            s.detail = os.str();
        }
        return s;
    });
}

int
L1xMesi::addL0x(L0xMesi *l0x)
{
    fusion_assert(_l0xs.size() < 31, "too many L0Xs");
    _l0xs.push_back(l0x);
    return static_cast<int>(_l0xs.size()) - 1;
}

void
L1xMesi::request(int l0x_id, Addr vline, Pid pid,
                 CoherenceReq kind, GrantDone done)
{
    vline = lineAlign(vline);
    _host.bookAccess(false);
    if (_tracer)
        _tracer->begin(_track, obs::SpanKind::MesiReq, vline,
                       _ctx.now());
    Cycles bank_delay = _banks.reserve(vline, _ctx.now());
    _ctx.eq.scheduleIn(_host.latency() + bank_delay,
                       [this, l0x_id, vline, pid, kind,
                        done = std::move(done)]() mutable {
                           arrive(l0x_id, vline, pid, kind,
                                  std::move(done));
                       });
}

void
L1xMesi::arrive(int l0x_id, Addr vline, Pid pid, CoherenceReq kind,
                GrantDone done)
{
    DirInfo &d = _dir[key(vline, pid)];
    if (d.busy) {
        d.deferred.push_back([this, l0x_id, vline, pid, kind,
                              done = std::move(done)]() mutable {
            arrive(l0x_id, vline, pid, kind, std::move(done));
        });
        ++_deferred;
        if (_tracer)
            _tracer->phase(_track, obs::SpanKind::MesiReq, vline,
                           "defer", _ctx.now());
        return;
    }
    d.busy = true;
    if (_host.tags().find(vline, pid)) {
        ++_hits;
        dirAction(l0x_id, vline, pid, kind, std::move(done));
        return;
    }
    ++_misses;
    bool primary = _host.fetch(
        vline, pid,
        [this, l0x_id, vline, pid, kind,
         done = std::move(done)]() mutable {
            dirAction(l0x_id, vline, pid, kind, std::move(done));
        });
    if (primary && _tracer)
        _tracer->phase(_track, obs::SpanKind::MesiReq, vline, "fill",
                       _ctx.now());
}

void
L1xMesi::dirAction(int l0x_id, Addr vline, Pid pid,
                   CoherenceReq kind, GrantDone done)
{
    DirInfo &d = _dir[key(vline, pid)];
    mem::CacheLine *line = _host.tags().find(vline, pid);
    fusion_assert(line, "dirAction without L1X frame");
    _host.tags().touch(*line);

    switch (kind) {
      case CoherenceReq::GetS: {
        if (d.owner >= 0 && d.owner != l0x_id) {
            clearTile(l0x_id, vline, pid, true,
                      [this, l0x_id, vline, pid,
                       done = std::move(done)]() mutable {
                          DirInfo &dd = _dir[key(vline, pid)];
                          dd.sharers |= bit(l0x_id);
                          respond(l0x_id, vline, pid, false, true,
                                  std::move(done));
                      });
            return;
        }
        bool exclusive = d.sharers == 0 && d.owner < 0;
        if (exclusive)
            d.owner = l0x_id;
        else
            d.sharers |= bit(l0x_id);
        respond(l0x_id, vline, pid, exclusive, true,
                std::move(done));
        return;
      }
      case CoherenceReq::GetX:
      case CoherenceReq::Upgrade: {
        bool had_copy = kind == CoherenceReq::Upgrade &&
                        ((d.sharers & bit(l0x_id)) != 0 ||
                         d.owner == l0x_id);
        clearTile(l0x_id, vline, pid, false,
                  [this, l0x_id, vline, pid, had_copy,
                   done = std::move(done)]() mutable {
                      DirInfo &dd = _dir[key(vline, pid)];
                      dd.owner = l0x_id;
                      dd.sharers = 0;
                      respond(l0x_id, vline, pid, true, !had_copy,
                              std::move(done));
                  });
        return;
      }
    }
    fusion_panic("unhandled tile MESI request");
}

void
L1xMesi::clearTile(int except, Addr vline, Pid pid,
                   bool downgrade_to_s, sim::SmallFn<void()> then)
{
    DirInfo &d = _dir[key(vline, pid)];
    struct Target
    {
        int id;
        FwdKind kind;
    };
    std::vector<Target> targets;
    if (d.owner >= 0 && d.owner != except) {
        targets.push_back({d.owner, downgrade_to_s
                                        ? FwdKind::FwdGetS
                                        : FwdKind::FwdGetX});
    }
    for (int i = 0; i < static_cast<int>(_l0xs.size()); ++i) {
        if (i == except || i == d.owner)
            continue;
        if (d.sharers & bit(i))
            targets.push_back({i, FwdKind::Inv});
    }
    if (targets.empty()) {
        then();
        return;
    }
    auto remaining = std::make_shared<std::size_t>(targets.size());
    auto cont =
        std::make_shared<sim::SmallFn<void()>>(std::move(then));
    for (const Target &t : targets) {
        ++_probesSent;
        // Probe + response cross the tile link (the ACC protocol
        // never sends these).
        _tileLink->book(MsgClass::Control);
        int id = t.id;
        FwdKind kind = t.kind;
        _ctx.eq.scheduleIn(
            _tileLink->latency(),
            [this, id, kind, vline, pid, remaining, cont] {
                _l0xs[static_cast<std::size_t>(id)]->handleTileFwd(
                    vline, kind,
                    [this, id, kind, vline, pid, remaining,
                     cont](bool dirty) {
                        _tileLink->book(dirty ? MsgClass::Data
                                              : MsgClass::Control);
                        DirInfo &dd = _dir[key(vline, pid)];
                        if (dirty) {
                            _host.bookAccess(true);
                            mem::CacheLine *l =
                                _host.tags().find(vline, pid);
                            if (l)
                                l->dirty = true;
                        }
                        switch (kind) {
                          case FwdKind::Inv:
                          case FwdKind::FwdGetX:
                            dd.sharers &= ~bit(id);
                            if (dd.owner == id)
                                dd.owner = -1;
                            break;
                          case FwdKind::FwdGetS:
                            if (dd.owner == id) {
                                dd.owner = -1;
                                dd.sharers |= bit(id);
                            }
                            break;
                        }
                        _ctx.eq.scheduleIn(
                            _tileLink->latency(),
                            [remaining, cont] {
                                if (--*remaining == 0)
                                    (*cont)();
                            });
                    });
            });
    }
}

void
L1xMesi::respond(int l0x_id, Addr vline, Pid pid, bool exclusive,
                 bool with_data, GrantDone done)
{
    (void)l0x_id;
    _tileLink->book(with_data ? MsgClass::Data : MsgClass::Control);
    if (_tracer)
        _tracer->end(_track, obs::SpanKind::MesiReq, vline,
                     _ctx.now());
    finishTransaction(vline, pid);
    _ctx.eq.scheduleIn(_tileLink->latency(),
                       [exclusive,
                        done = std::move(done)]() mutable {
                           done(exclusive);
                       });
}

void
L1xMesi::finishTransaction(Addr vline, Pid pid)
{
    DirInfo &d = _dir[key(vline, pid)];
    fusion_assert(d.busy, "finishing idle tile transaction");
    d.busy = false;
    if (!d.deferred.empty()) {
        auto next = std::move(d.deferred.front());
        d.deferred.pop_front();
        next();
    }
}

void
L1xMesi::writeback(int l0x_id, Addr vline, Pid pid)
{
    vline = lineAlign(vline);
    _host.bookAccess(true);
    ++_l0xWritebacks;
    DirInfo &d = _dir[key(vline, pid)];
    if (d.owner == l0x_id)
        d.owner = -1;
    d.sharers &= ~bit(l0x_id);
    mem::CacheLine *line = _host.tags().find(vline, pid);
    if (line) {
        line->dirty = true;
        line->mesi = MesiState::M;
    }
}

void
L1xMesi::evictNotice(int l0x_id, Addr vline, Pid pid)
{
    vline = lineAlign(vline);
    ++_evictNotices;
    DirInfo &d = _dir[key(vline, pid)];
    if (d.owner == l0x_id)
        d.owner = -1;
    d.sharers &= ~bit(l0x_id);
}

void
L1xMesi::handleFwd(Addr pa, FwdKind kind, FwdDone done)
{
    (void)kind;
    DPRINTFN("MESI", "host fwd pa=", pa, " now=", _ctx.now());
    mem::CacheLine *line = _host.resolve(pa);
    if (!line) {
        done(false, false);
        return;
    }
    Addr vline = line->lineAddr;
    Pid pid = line->pid;
    auto k = key(vline, pid);
    DirInfo &d = _dir[k];
    if (d.busy) {
        // A tile transaction is mid-flight: retry shortly.
        _ctx.eq.scheduleIn(4, [this, pa, kind,
                               done = std::move(done)]() mutable {
            handleFwd(pa, kind, std::move(done));
        });
        return;
    }
    d.busy = true;
    _host.bookAccess(false);
    // Conventional design: the host demand probes the L0Xs.
    clearTile(-1, vline, pid, false,
              [this, vline, pid, k,
               done = std::move(done)]() mutable {
                  mem::CacheLine *l = _host.tags().find(vline, pid);
                  bool dirty = l && l->dirty;
                  if (l)
                      _host.drop(*l);
                  DirInfo &dd = _dir[k];
                  dd.busy = false;
                  if (!dd.deferred.empty()) {
                      auto next = std::move(dd.deferred.front());
                      dd.deferred.pop_front();
                      next();
                  }
                  done(dirty, false);
              });
}

// ---------------------------------------------------------------
// MesiTile
// ---------------------------------------------------------------

MesiTile::MesiTile(SimContext &ctx, std::uint32_t num_accels,
                   std::uint64_t l0x_bytes, std::uint32_t l0x_assoc,
                   const L1xParams &l1x, host::Llc &llc,
                   const vm::PageTable &pt)
{
    _tileLink = std::make_unique<interconnect::Link>(
        ctx, interconnect::LinkParams{
                 "l0x_l1x", energy::LinkClass::AxcToL1x, 1,
                 energy::comp::kLinkL0xL1xMsg,
                 energy::comp::kLinkL0xL1xData});
    _llcLink = std::make_unique<interconnect::Link>(
        ctx, interconnect::LinkParams{
                 "l1x_l2", energy::LinkClass::L1xToL2, 3,
                 energy::comp::kLinkL1xL2Msg,
                 energy::comp::kLinkL1xL2Data});
    _tlb = std::make_unique<vm::AxTlb>(ctx, vm::AxTlbParams{}, pt);
    _rmap = std::make_unique<vm::AxRmap>(ctx, vm::AxRmapParams{});
    _l1x = std::make_unique<L1xMesi>(ctx, l1x, llc, _tileLink.get(),
                                     _llcLink.get(), *_tlb, *_rmap);
    for (std::uint32_t a = 0; a < num_accels; ++a) {
        _l0xs.push_back(std::make_unique<L0xMesi>(
            ctx, "axc" + std::to_string(a) + ".l0x", l0x_bytes,
            l0x_assoc, static_cast<AccelId>(a), *_l1x,
            _tileLink.get()));
        int id = _l1x->addL0x(_l0xs.back().get());
        fusion_assert(id == static_cast<int>(a),
                      "L0X id mismatch");
    }
}

} // namespace fusion::accel
