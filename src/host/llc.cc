#include "host/llc.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "energy/sram_model.hh"
#include "sim/logging.hh"

namespace fusion::host
{

using coherence::CoherenceReq;
using coherence::FwdKind;
using interconnect::MsgClass;

Llc::Llc(SimContext &ctx, const LlcParams &p, mem::Dram &dram)
    : _ctx(ctx), _p(p), _dram(dram),
      _ring(p.nucaBanks, p.hopLatency),
      _tags(mem::CacheGeometry{p.capacityBytes, p.assoc, kLineBytes}),
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
        std::vector<Addr> busy;
        std::uint64_t deferred = 0;
        for (const auto &[pa, d] : _dir) {
            if (d.busy)
                busy.push_back(pa);
            deferred += d.deferred.size();
        }
        s.outstanding = busy.size() + deferred;
        if (!busy.empty()) {
            std::sort(busy.begin(), busy.end());
            std::ostringstream os;
            os << "busy_lines=[" << std::hex;
            for (std::size_t i = 0; i < busy.size(); ++i)
                os << (i ? "," : "") << "0x" << busy[i];
            os << ']' << std::dec << " deferred=" << deferred;
            s.detail = os.str();
        }
        return s;
    });
    ctx.guard.registerInvariant(
        "llc.dir",
        [this](const guard::InvariantContext &,
               std::vector<std::string> &out) {
            // Directory self-consistency for quiesced entries:
            // exclusive ownership excludes sharers, and the LLC is
            // inclusive of everything the directory records. Busy
            // entries are mid-transaction by design.
            std::vector<std::pair<Addr, const char *>> bad;
            for (const auto &[pa, d] : _dir) {
                if (d.busy)
                    continue;
                if (d.owner >= 0 && d.sharers != 0)
                    bad.emplace_back(pa, "owner and sharers coexist");
                if ((d.owner >= 0 || d.sharers != 0) &&
                    !_tags.find(pa)) {
                    bad.emplace_back(
                        pa, "directory entry without LLC frame");
                }
            }
            std::sort(bad.begin(), bad.end());
            for (const auto &[pa, why] : bad) {
                std::ostringstream os;
                os << why << " @ 0x" << std::hex << pa;
                out.push_back(os.str());
            }
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

Llc::DirInfo &
Llc::dirInfo(Addr pa)
{
    return _dir[lineAlign(pa)];
}

const Llc::DirInfo *
Llc::dirInfoIfAny(Addr pa) const
{
    auto it = _dir.find(lineAlign(pa));
    return it == _dir.end() ? nullptr : &it->second;
}

void
Llc::maybeGarbageCollect(Addr pa)
{
    auto it = _dir.find(lineAlign(pa));
    if (it != _dir.end() && it->second.idle())
        _dir.erase(it);
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
    DirInfo &d = dirInfo(pa);
    if (d.busy) {
        d.deferred.push_back([this, agent, pa, kind,
                              done = std::move(done)]() mutable {
            arrive(agent, pa, kind, std::move(done));
        });
        ++_deferred;
        return;
    }
    d.busy = true;
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
            const DirInfo *d = dirInfoIfAny(l.lineAddr);
            return !d || !d->busy;
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
    // victim's directory entry is marked busy for the duration so a
    // new request to the victim line cannot start a conflicting
    // transaction mid-recall.
    Addr victim_addr = victim->lineAddr;
    ++_recalls;
    bool victim_dirty = victim->dirty;
    dirInfo(victim_addr).busy = true;
    clearRemote(-1, victim_addr, false,
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
                    finishTransaction(victim_addr);
                    finish_fill();
                });
}

void
Llc::dirAction(int agent, Addr pa, CoherenceReq kind, LlcDone done)
{
    DirInfo &d = dirInfo(pa);
    mem::CacheLine *line = _tags.find(pa);
    fusion_assert(line, "dirAction without LLC frame");
    _tags.touch(*line);

    switch (kind) {
      case CoherenceReq::GetS: {
        if (d.owner >= 0 && d.owner != agent) {
            clearRemote(agent, pa, true,
                        [this, agent, pa,
                         done = std::move(done)]() mutable {
                            // The previous owner is now a sharer if
                            // it retained a copy (clearRemote
                            // updated the map); the requester joins
                            // the sharer list.
                            DirInfo &dd = dirInfo(pa);
                            dd.sharers |= bit(agent);
                            respond(agent, pa, MsgClass::Data,
                                    false, std::move(done));
                        });
            return;
        }
        if (d.owner == agent) {
            // Requester already owns it (stale request); just reply.
            respond(agent, pa, MsgClass::Data, true, std::move(done));
            return;
        }
        bool exclusive = (d.sharers == 0);
        if (exclusive) {
            d.owner = agent; // grant Exclusive
        } else {
            d.sharers |= bit(agent);
        }
        respond(agent, pa, MsgClass::Data, exclusive, std::move(done));
        return;
      }
      case CoherenceReq::GetX:
      case CoherenceReq::Upgrade: {
        bool had_sharer_copy =
            (kind == CoherenceReq::Upgrade) &&
            ((d.sharers & bit(agent)) != 0 || d.owner == agent);
        clearRemote(agent, pa, false,
                    [this, agent, pa, had_sharer_copy,
                     done = std::move(done)]() mutable {
                        DirInfo &dd = dirInfo(pa);
                        dd.owner = agent;
                        dd.sharers = 0;
                        respond(agent, pa,
                                had_sharer_copy ? MsgClass::Control
                                                : MsgClass::Data,
                                true, std::move(done));
                    });
        return;
      }
    }
    fusion_panic("unhandled coherence request");
}

void
Llc::clearRemote(int except_agent, Addr pa, bool downgrade_to_s,
                 sim::SmallFn<void()> then)
{
    DirInfo &d = dirInfo(pa);
    struct Target
    {
        int agent;
        FwdKind kind;
    };
    std::vector<Target> targets;
    if (d.owner >= 0 && d.owner != except_agent) {
        targets.push_back({d.owner, downgrade_to_s ? FwdKind::FwdGetS
                                                   : FwdKind::FwdGetX});
    }
    for (int a = 0; a < static_cast<int>(_agents.size()); ++a) {
        if (a == except_agent || a == d.owner)
            continue;
        if (d.sharers & bit(a))
            targets.push_back({a, FwdKind::Inv});
    }
    if (targets.empty()) {
        then();
        return;
    }

    auto remaining = std::make_shared<std::size_t>(targets.size());
    auto cont = std::make_shared<sim::SmallFn<void()>>(
        std::move(then));
    for (const Target &t : targets) {
        AgentInfo &ai = _agents[static_cast<std::size_t>(t.agent)];
        ++ai.fwds;
        // Forward demand travels LLC -> agent.
        Cycles out_lat = pathLatency(t.agent, pa);
        FwdKind kind = t.kind;
        int agent_id = t.agent;
        ai.link->send(MsgClass::Control, out_lat,
                      [this, agent_id, pa, kind, remaining, cont]() {
            AgentInfo &target = _agents[
                static_cast<std::size_t>(agent_id)];
            target.agent->handleFwd(pa, kind, [this, agent_id, pa,
                                               kind, remaining,
                                               cont](bool dirty,
                                                     bool retained) {
                AgentInfo &ta = _agents[
                    static_cast<std::size_t>(agent_id)];
                MsgClass resp_cls = MsgClass::Control; // ack only
                if (dirty) {
                    // Owner supplies data (3-hop): the payload
                    // crosses the owner's link and updates the LLC.
                    resp_cls = MsgClass::Data;
                    bankAccess(true);
                    mem::CacheLine *l = _tags.find(pa);
                    if (l)
                        l->dirty = true;
                }
                DirInfo &dd = dirInfo(pa);
                switch (kind) {
                  case FwdKind::Inv:
                    dd.sharers &= ~bit(agent_id);
                    break;
                  case FwdKind::FwdGetX:
                    if (dd.owner == agent_id)
                        dd.owner = -1;
                    dd.sharers &= ~bit(agent_id);
                    break;
                  case FwdKind::FwdGetS:
                    if (dd.owner == agent_id)
                        dd.owner = -1;
                    if (retained)
                        dd.sharers |= bit(agent_id);
                    else
                        dd.sharers &= ~bit(agent_id);
                    break;
                }
                Cycles back = pathLatency(agent_id, pa);
                ta.link->send(resp_cls, back, [remaining, cont]() {
                    if (--*remaining == 0)
                        (*cont)();
                });
            });
        });
    }
}

void
Llc::respond(int agent, Addr pa, MsgClass cls, bool exclusive,
             LlcDone done)
{
    if (_ctx.guard.fireFault(guard::FaultKind::CorruptDir)) {
        // The directory "forgets" what it just recorded: the owner
        // bit or one sharer bit vanishes while the agent's copy
        // stays live (and the response below still tells the agent
        // it has the line). Caught by the agent-side residency
        // checkers on the next invariant sweep.
        DirInfo &d = dirInfo(pa);
        if (d.owner >= 0)
            d.owner = -1;
        else if (d.sharers != 0)
            d.sharers &= d.sharers - 1;
    }
    Cycles lat = pathLatency(agent, pa);
    if (_tracer)
        _tracer->end(_track, obs::SpanKind::LlcReq, pa, _ctx.now());
    finishTransaction(pa);
    _agents[static_cast<std::size_t>(agent)].link->send(
        cls, lat, [exclusive, done = std::move(done)]() mutable {
            done(LlcResponse{exclusive});
        });
}

void
Llc::finishTransaction(Addr pa)
{
    DirInfo &d = dirInfo(pa);
    fusion_assert(d.busy, "finishing idle transaction");
    d.busy = false;
    if (!d.deferred.empty()) {
        auto next = std::move(d.deferred.front());
        d.deferred.pop_front();
        next();
    } else {
        maybeGarbageCollect(pa);
    }
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
        DirInfo &d = dirInfo(pa);
        if (d.owner == agent)
            d.owner = -1;
        d.sharers &= ~bit(agent);
        mem::CacheLine *line = _tags.find(pa);
        if (line) {
            line->dirty = true;
        } else {
            // Line was recalled concurrently: spill to memory.
            _dramLink.book(MsgClass::Data);
            _dram.access(pa, true, [] {});
        }
        maybeGarbageCollect(pa);
    });
}

void
Llc::evictNotice(int agent, Addr pa)
{
    pa = lineAlign(pa);
    ++_evictNotices;
    AgentInfo &ai = _agents[static_cast<std::size_t>(agent)];
    ai.link->send(MsgClass::Control, pathLatency(agent, pa),
                  [this, agent, pa]() {
        DirInfo &d = dirInfo(pa);
        if (d.owner == agent)
            d.owner = -1;
        d.sharers &= ~bit(agent);
        maybeGarbageCollect(pa);
    });
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
    DirInfo &d = dirInfo(pa);
    if (d.busy) {
        d.deferred.push_back([this, pa, is_write, dma_link,
                              done = std::move(done)]() mutable {
            dmaArrive(pa, is_write, dma_link, std::move(done));
        });
        return;
    }
    d.busy = true;
    ++(is_write ? _dmaWrites : _dmaReads);
    bankAccess(is_write);
    _ctx.eq.scheduleIn(_p.bankLatency, [this, pa, is_write, dma_link,
                                        done =
                                            std::move(done)]() mutable {
        auto proceed = [this, pa, is_write, dma_link,
                        done = std::move(done)]() mutable {
            if (is_write) {
                // Invalidate all stale copies, then install dirty
                // data at the LLC.
                clearRemote(-1, pa, false,
                            [this, pa, dma_link,
                             done = std::move(done)]() mutable {
                                DirInfo &dd = dirInfo(pa);
                                dd.owner = -1;
                                dd.sharers = 0;
                                mem::CacheLine *l = _tags.find(pa);
                                fusion_assert(l, "DMA write lost frame");
                                l->dirty = true;
                                finishTransaction(pa);
                                // Data crossed scratchpad -> LLC.
                                dma_link->send(
                                    MsgClass::Data,
                                    dma_link->latency(),
                                    [done = std::move(done)]() mutable {
                                        done();
                                    });
                            });
            } else {
                // Snoop the freshest copy (downgrade a dirty owner),
                // then push the line to the scratchpad.
                clearRemote(-1, pa, true,
                            [this, pa, dma_link,
                             done = std::move(done)]() mutable {
                                DirInfo &dd = dirInfo(pa);
                                if (dd.owner >= 0) {
                                    dd.sharers |= bit(dd.owner);
                                    dd.owner = -1;
                                }
                                finishTransaction(pa);
                                dma_link->send(
                                    MsgClass::Data,
                                    dma_link->latency(),
                                    [done = std::move(done)]() mutable {
                                        done();
                                    });
                            });
            }
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
    const DirInfo *d = dirInfoIfAny(pa);
    return d && d->owner == agent;
}

bool
Llc::isSharer(int agent, Addr pa) const
{
    const DirInfo *d = dirInfoIfAny(pa);
    return d && (d->sharers & bit(agent)) != 0;
}

bool
Llc::dirBusy(Addr pa) const
{
    const DirInfo *d = dirInfoIfAny(pa);
    return d && d->busy;
}

} // namespace fusion::host
