#include "accel/tile_mesi.hh"

#include <sstream>

#include "sim/logging.hh"

namespace fusion::accel
{

using coherence::CoherenceReq;
using coherence::Directory;
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
    : SplitPort(ctx.eq), _ctx(ctx), _name(std::move(name)), _id(id),
      _l1x(l1x), _tileLink(tile_link),
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
L0xMesi::begin(Addr va, bool is_write)
{
    bookAccess(is_write, false);
    if (_tracer)
        _tracer->begin(_track, obs::SpanKind::Access, lineAlign(va),
                       _ctx.now());
}

void
L0xMesi::hop(Addr va, bool is_write, PortDone done)
{
    lookup(lineAlign(va), is_write, _ctx.now() - _fig.latency, done,
           false);
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
        vline, [this, vline, is_write, start, done] {
            lookup(vline, is_write, start, done, true);
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
                       coherence::CoherentAgent::FwdDone done)
{
    ++_probes;
    bookAccess(false, false); // tag probe energy
    mem::CacheLine *line = _tags.find(lineAlign(vline), _pid);
    if (!line) {
        done(false, false);
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
    done(dirty, kind == FwdKind::FwdGetS);
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
                return _dir.idle({l.lineAddr, l.pid});
            },
            nullptr),
      _banks(p.banks, 1),
      _dir([this](Key k, int id, FwdKind kind) { probe(k, id, kind); })
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
        return static_cast<double>(_dir.busyCount());
    });
    ctx.obs.registerCounter(_name + ".misses", [this] {
        return static_cast<double>(_misses);
    });
    ctx.guard.registerSnapshot(_name, [this] {
        guard::ComponentState s;
        s.outstanding = _host.mshrs() + _dir.parkedCount();
        if (s.outstanding != 0) {
            std::ostringstream os;
            os << "mshrs=" << _host.mshrs()
               << " busy=" << _dir.busyCount()
               << " deferred=" << _dir.parkedCount()
               << " frame_retries=" << _host.frameRetries();
            s.detail = os.str();
        }
        return s;
    });
    ctx.guard.registerInvariant(
        _name + ".dir", [this](const guard::InvariantContext &,
                               std::vector<std::string> &out) {
            _dir.check(
                "L1X",
                [this](Key k) {
                    return _host.tags().find(k.line, k.pid) != nullptr;
                },
                out);
        });
    ctx.guard.registerInvariant(
        "tile.mesi", [this](const guard::InvariantContext &,
                            std::vector<std::string> &out) {
            // The directory agrees with every quiesced L0X copy: the
            // copy is recorded for its L0X, and an M/E copy is the
            // owner and the only copy. Inclusion of recorded copies
            // is <l1x>.dir's check.
            for (std::size_t i = 0; i < _l0xs.size(); ++i) {
                const L0xMesi &l0 = *_l0xs[i];
                int id = static_cast<int>(i);
                l0.tags().forEachValid([&](const mem::CacheLine &l) {
                    Directory::State d =
                        _dir.state({l.lineAddr, l.pid});
                    if (d.busy)
                        return;
                    auto report = [&](const char *why) {
                        std::ostringstream os;
                        os << l0.name() << ' ' << why << " @ 0x"
                           << std::hex << l.lineAddr;
                        out.push_back(os.str());
                    };
                    bool owner = d.owner == id;
                    bool exclusive = l.mesi == MesiState::M ||
                                     l.mesi == MesiState::E;
                    if (!owner && (d.sharers & Directory::bit(id)) == 0)
                        report("copy not recorded in directory");
                    else if (exclusive && (!owner || d.sharers != 0))
                        report("M/E copy is not the sole owner");
                });
            }
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
    if (!_dir.begin({vline, pid})) {
        _dir.park({vline, pid}, [this, l0x_id, vline, pid, kind,
                                 done = std::move(done)]() mutable {
            arrive(l0x_id, vline, pid, kind, std::move(done));
        });
        ++_deferred;
        if (_tracer)
            _tracer->phase(_track, obs::SpanKind::MesiReq, vline,
                           "defer", _ctx.now());
        return;
    }
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
    mem::CacheLine *line = _host.tags().find(vline, pid);
    fusion_assert(line, "dirAction without L1X frame");
    _host.tags().touch(*line);
    Key k{vline, pid};
    _dir.serve(k, l0x_id, kind,
               [this, k, done = std::move(done)](
                   Directory::Grant g) mutable {
                   respond(k, g, std::move(done));
               });
}

void
L1xMesi::probe(Key k, int id, FwdKind kind)
{
    ++_probesSent;
    // Probe + response cross the tile link (the ACC protocol never
    // sends these).
    _tileLink->book(MsgClass::Control);
    _ctx.eq.scheduleIn(_tileLink->latency(), [this, k, id, kind] {
        _l0xs[static_cast<std::size_t>(id)]->handleTileFwd(
            k.line, kind,
            [this, k, id, kind](bool dirty, bool retained) {
                _tileLink->book(dirty ? MsgClass::Data
                                      : MsgClass::Control);
                if (dirty) {
                    _host.bookAccess(true);
                    if (mem::CacheLine *l =
                            _host.tags().find(k.line, k.pid))
                        l->dirty = true;
                }
                _dir.probed(k, id, kind, retained);
                _ctx.eq.scheduleIn(_tileLink->latency(),
                                   [this, k] { _dir.acked(k); });
            });
    });
}

void
L1xMesi::respond(Key k, Directory::Grant g, GrantDone done)
{
    _tileLink->book(g.withData ? MsgClass::Data : MsgClass::Control);
    if (_tracer)
        _tracer->end(_track, obs::SpanKind::MesiReq, k.line,
                     _ctx.now());
    // The grant goes out before finish() starts a parked request, so
    // that request's probes cannot overtake it on the tile link.
    _ctx.eq.scheduleIn(_tileLink->latency(),
                       [exclusive = g.exclusive,
                        done = std::move(done)]() mutable {
                           done(exclusive);
                       });
    _dir.finish(k);
}

void
L1xMesi::writeback(int l0x_id, Addr vline, Pid pid)
{
    vline = lineAlign(vline);
    _host.bookAccess(true);
    ++_l0xWritebacks;
    _dir.drop({vline, pid}, l0x_id);
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
    _dir.drop({vline, pid}, l0x_id);
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
    Key k{line->lineAddr, line->pid};
    if (!_dir.begin(k)) {
        // A tile transaction is mid-flight: poll shortly.
        _ctx.eq.scheduleIn(4, [this, pa, kind,
                               done = std::move(done)]() mutable {
            handleFwd(pa, kind, std::move(done));
        });
        return;
    }
    _host.bookAccess(false);
    // Conventional design: the host demand probes the L0Xs.
    _dir.clear(k, -1, false,
               [this, k, done = std::move(done)]() mutable {
                   mem::CacheLine *l = _host.tags().find(k.line, k.pid);
                   bool dirty = l && l->dirty;
                   if (l)
                       _host.drop(*l);
                   _dir.finish(k);
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
