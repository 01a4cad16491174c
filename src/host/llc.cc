#include "host/llc.hh"

#include <bit>
#include <sstream>
#include <vector>

#include "energy/sram_model.hh"
#include "sim/logging.hh"

namespace fusion::host
{

using coherence::CoherenceReq;
using coherence::Directory;
using coherence::FwdKind;
using interconnect::MsgClass;

Llc::Llc(SimContext &ctx, const LlcParams &p, mem::Dram &dram)
    : _ctx(ctx), _p(p), _dram(dram),
      _ring(p.nucaBanks, p.hopLatency),
      _tags(mem::CacheGeometry{p.capacityBytes, p.assoc, kLineBytes}),
      _dir([this](Directory::Key k, int agent, FwdKind kind) {
          probe(k.line, agent, kind);
      }),
      _dramLink(ctx,
                interconnect::LinkParams{
                    "llc_dram", energy::LinkClass::LlcToDram, 4,
                    energy::comp::kLinkLlcDram,
                    energy::comp::kLinkLlcDram})
{
    energy::SramParams sp;
    sp.capacityBytes = p.capacityBytes;
    sp.assoc = p.assoc;
    sp.banks = p.nucaBanks;
    sp.kind = energy::SramKind::Cache;
    auto fig = energy::evaluateSram(sp);
    _bankReadPj = fig.readPj;
    _bankWritePj = fig.writePj;
    _ecLlc = ctx.energy.component(energy::comp::kLlc);
    ctx.stats.counters("llc", {{"bank_reads", _bankReads},
                               {"bank_writes", _bankWrites},
                               {"requests", _requests},
                               {"hits", _hits},
                               {"misses", _misses},
                               {"deferred", _deferred},
                               {"victim_retries", _victimRetries},
                               {"recalls", _recalls},
                               {"writebacks", _writebacks},
                               {"evict_notices", _evictNotices},
                               {"dma_reads", _dmaReads},
                               {"dma_writes", _dmaWrites}});

    _tracer = ctx.obs.tracer();
    if (_tracer)
        _track = _tracer->registerTrack("llc");
    ctx.obs.registerGauge("llc.dir_entries", [this] {
        return static_cast<double>(_dir.size());
    });
    ctx.obs.registerCounter("llc.requests", [this] {
        return static_cast<double>(_requests);
    });

    ctx.guard.registerSnapshot("llc", [this] {
        guard::ComponentState s;
        std::vector<Directory::Key> busy = _dir.busyKeys();
        s.outstanding = busy.size() + _dir.parkedCount();
        if (!busy.empty()) {
            std::ostringstream os;
            os << "busy_lines=[" << std::hex;
            for (std::size_t i = 0; i < busy.size(); ++i)
                os << (i ? "," : "") << "0x" << busy[i].line;
            os << ']' << std::dec << " deferred=" << _dir.parkedCount();
            s.detail = os.str();
        }
        return s;
    });
    ctx.guard.registerInvariant(
        "llc.dir",
        [this](const guard::InvariantContext &,
               std::vector<std::string> &out) {
            _dir.check(
                "LLC",
                [this](Directory::Key k) {
                    return _tags.find(k.line) != nullptr;
                },
                out);
        });
}

int
Llc::registerAgent(coherence::CoherentAgent *agent,
                   interconnect::Link *link, std::uint32_t ring_node)
{
    fusion_assert(_agents.size() < 31, "too many coherent agents");
    _agents.push_back(AgentInfo{agent, link, ring_node, 0});
    _ctx.stats.counter("llc.fwds", _agents.back().fwds);
    return static_cast<int>(_agents.size()) - 1;
}

Cycles
Llc::pathLatency(int agent, Addr pa) const
{
    const AgentInfo &a = _agents[static_cast<std::size_t>(agent)];
    return a.link->latency() +
           _ring.latency(a.node, _ring.homeNode(pa));
}

void
Llc::bankAccess(bool is_write)
{
    ++(is_write ? _bankWrites : _bankReads);
    _ctx.energy.add(_ecLlc, is_write ? _bankWritePj : _bankReadPj);
}

void
Llc::request(int agent, Addr pa, CoherenceReq kind, LlcDone done)
{
    pa = lineAlign(pa);
    ++_requests;
    if (_tracer)
        _tracer->begin(_track, obs::SpanKind::LlcReq, pa, _ctx.now());
    _agents[static_cast<std::size_t>(agent)].link->send(
        MsgClass::Control, pathLatency(agent, pa),
        [this, agent, pa, kind, done = std::move(done)]() mutable {
            arrive(agent, pa, kind, std::move(done));
        });
}

void
Llc::arrive(int agent, Addr pa, CoherenceReq kind, LlcDone done)
{
    if (!_dir.begin(pa)) {
        _dir.park(pa, [this, agent, pa, kind,
                       done = std::move(done)]() mutable {
            arrive(agent, pa, kind, std::move(done));
        });
        ++_deferred;
        return;
    }
    bankAccess(false);
    _ctx.eq.scheduleIn(_p.bankLatency,
                       [this, agent, pa, kind,
                        done = std::move(done)]() mutable {
                           lookup(agent, pa, kind, std::move(done));
                       });
}

void
Llc::lookup(int agent, Addr pa, CoherenceReq kind, LlcDone done)
{
    if (_tags.find(pa)) {
        ++_hits;
        dirAction(agent, pa, kind, std::move(done));
        return;
    }
    ++_misses;
    ensurePresent(pa, [this, agent, pa, kind,
                       done = std::move(done)]() mutable {
        dirAction(agent, pa, kind, std::move(done));
    });
}

void
Llc::ensurePresent(Addr pa, sim::SmallFn<void()> then)
{
    fusion_assert(!_tags.find(pa), "ensurePresent on present line");
    mem::CacheLine *victim = _tags.victim(
        pa, [this](const mem::CacheLine &l) {
            return !_dir.state(l.lineAddr).busy;
        });
    if (!victim) {
        // Every way is pinned by a busy transaction; retry shortly.
        ++_victimRetries;
        _ctx.eq.scheduleIn(
            8, [this, pa, then = std::move(then)]() mutable {
                ensurePresent(pa, std::move(then));
            });
        return;
    }

    auto finish_fill = [this, pa, victim,
                        then = std::move(then)]() mutable {
        _tags.install(*victim, pa);
        victim->mesi = mem::MesiState::E; // present at LLC
        // Fetch the line from memory.
        _dramLink.book(MsgClass::Data);
        _dram.access(pa, false, [then = std::move(then)]() mutable {
            then();
        });
    };

    if (!victim->valid) {
        finish_fill();
        return;
    }

    // Inclusive LLC: recall remote copies of the victim first. The
    // victim's directory entry is busy for the duration so a new
    // request to the victim line cannot start a conflicting
    // transaction mid-recall.
    Addr victim_addr = victim->lineAddr;
    ++_recalls;
    bool victim_dirty = victim->dirty;
    bool began = _dir.begin(victim_addr);
    fusion_assert(began, "recalling a busy LLC victim");
    _dir.clear(victim_addr, -1, false,
               [this, victim_addr, victim_dirty, victim,
                finish_fill = std::move(finish_fill)]() mutable {
                   mem::CacheLine *v = _tags.find(victim_addr);
                   bool dirty = victim_dirty ||
                                (v != nullptr && v->dirty);
                   if (dirty) {
                       _dramLink.book(MsgClass::Data);
                       _dram.access(victim_addr, true, [] {});
                   }
                   if (v)
                       _tags.invalidate(*v);
                   _dir.finish(victim_addr);
                   finish_fill();
               });
}

void
Llc::dirAction(int agent, Addr pa, CoherenceReq kind, LlcDone done)
{
    mem::CacheLine *line = _tags.find(pa);
    fusion_assert(line, "dirAction without LLC frame");
    _tags.touch(*line);
    _dir.serve(pa, agent, kind,
               [this, agent, pa,
                done = std::move(done)](Directory::Grant g) mutable {
                   respond(agent, pa, g, std::move(done));
               });
}

void
Llc::probe(Addr pa, int agent, FwdKind kind)
{
    AgentInfo &ai = _agents[static_cast<std::size_t>(agent)];
    ++ai.fwds;
    ai.link->send(MsgClass::Control, pathLatency(agent, pa),
                  [this, agent, pa, kind]() {
        _agents[static_cast<std::size_t>(agent)].agent->handleFwd(
            pa, kind,
            [this, agent, pa, kind](bool dirty, bool retained) {
                if (dirty) {
                    // Owner supplies data (3-hop): the payload
                    // crosses the owner's link and updates the LLC.
                    bankAccess(true);
                    if (mem::CacheLine *l = _tags.find(pa))
                        l->dirty = true;
                }
                _dir.probed(pa, agent, kind, retained);
                _agents[static_cast<std::size_t>(agent)].link->send(
                    dirty ? MsgClass::Data : MsgClass::Control,
                    pathLatency(agent, pa), [this, pa] {
                        _dir.acked(pa);
                    });
            });
    });
}

void
Llc::respond(int agent, Addr pa, Directory::Grant g, LlcDone done)
{
    if (_ctx.guard.fireFault(guard::FaultKind::CorruptDir)) {
        // The directory "forgets" what it just recorded: the owner
        // bit or one sharer bit vanishes while the agent's copy
        // stays live (and the response below still tells the agent
        // it has the line). Caught by the agent-side residency
        // checkers on the next invariant sweep.
        Directory::State d = _dir.state(pa);
        if (d.owner >= 0)
            _dir.drop(pa, d.owner);
        else if (d.sharers != 0)
            _dir.drop(pa, std::countr_zero(d.sharers));
    }
    Cycles lat = pathLatency(agent, pa);
    if (_tracer)
        _tracer->end(_track, obs::SpanKind::LlcReq, pa, _ctx.now());
    _dir.finish(pa);
    _agents[static_cast<std::size_t>(agent)].link->send(
        g.withData ? MsgClass::Data : MsgClass::Control, lat,
        [exclusive = g.exclusive, done = std::move(done)]() mutable {
            done(LlcResponse{exclusive});
        });
}

void
Llc::writebackData(int agent, Addr pa)
{
    pa = lineAlign(pa);
    ++_writebacks;
    AgentInfo &ai = _agents[static_cast<std::size_t>(agent)];
    ai.link->send(MsgClass::Data, pathLatency(agent, pa),
                  [this, agent, pa]() {
        bankAccess(true);
        _dir.drop(pa, agent);
        mem::CacheLine *line = _tags.find(pa);
        if (line) {
            line->dirty = true;
        } else {
            // Line was recalled concurrently: spill to memory.
            _dramLink.book(MsgClass::Data);
            _dram.access(pa, true, [] {});
        }
    });
}

void
Llc::evictNotice(int agent, Addr pa)
{
    pa = lineAlign(pa);
    ++_evictNotices;
    AgentInfo &ai = _agents[static_cast<std::size_t>(agent)];
    ai.link->send(MsgClass::Control, pathLatency(agent, pa),
                  [this, agent, pa]() { _dir.drop(pa, agent); });
}

void
Llc::dmaRead(Addr pa, interconnect::Link *dma_link, DmaDone done)
{
    dmaArrive(lineAlign(pa), false, dma_link, std::move(done));
}

void
Llc::dmaWrite(Addr pa, interconnect::Link *dma_link, DmaDone done)
{
    dmaArrive(lineAlign(pa), true, dma_link, std::move(done));
}

void
Llc::dmaArrive(Addr pa, bool is_write, interconnect::Link *dma_link,
               DmaDone done)
{
    if (!_dir.begin(pa)) {
        _dir.park(pa, [this, pa, is_write, dma_link,
                       done = std::move(done)]() mutable {
            dmaArrive(pa, is_write, dma_link, std::move(done));
        });
        return;
    }
    ++(is_write ? _dmaWrites : _dmaReads);
    bankAccess(is_write);
    _ctx.eq.scheduleIn(_p.bankLatency, [this, pa, is_write, dma_link,
                                        done =
                                            std::move(done)]() mutable {
        // A write invalidates every copy, then installs dirty data
        // at the LLC. A read snoops the freshest copy (downgrading a
        // dirty owner), then pushes the line to the scratchpad.
        auto proceed = [this, pa, is_write, dma_link,
                        done = std::move(done)]() mutable {
            _dir.clear(pa, -1, !is_write,
                       [this, pa, is_write, dma_link,
                        done = std::move(done)]() mutable {
                           if (is_write) {
                               mem::CacheLine *l = _tags.find(pa);
                               fusion_assert(l, "DMA write lost frame");
                               l->dirty = true;
                           }
                           _dir.finish(pa);
                           // The data crosses the DMA link.
                           dma_link->send(
                               MsgClass::Data, dma_link->latency(),
                               [done = std::move(done)]() mutable {
                                   done();
                               });
                       });
        };
        if (_tags.find(pa)) {
            proceed();
        } else {
            ensurePresent(pa, std::move(proceed));
        }
    });
}

std::uint64_t
Llc::fwdsToAgent(int agent) const
{
    return _agents[static_cast<std::size_t>(agent)].fwds;
}

bool
Llc::isOwner(int agent, Addr pa) const
{
    return _dir.state(lineAlign(pa)).owner == agent;
}

bool
Llc::isSharer(int agent, Addr pa) const
{
    return (_dir.state(lineAlign(pa)).sharers &
            Directory::bit(agent)) != 0;
}

bool
Llc::dirBusy(Addr pa) const
{
    return _dir.state(lineAlign(pa)).busy;
}

} // namespace fusion::host
