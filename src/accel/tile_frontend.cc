/**
 * @file
 * The four TileFrontend implementations. Each constructor's
 * component construction order fixes its kind's registration order,
 * which the FrontendEquivalence goldens pin.
 */

#include "accel/tile_frontend.hh"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/dma_engine.hh"
#include "accel/scratchpad_frontend.hh"
#include "accel/tile_mesi.hh"
#include "host/host_l1.hh"
#include "mem/scratchpad.hh"
#include "sim/logging.hh"
#include "trace/analysis.hh"

namespace fusion::accel
{

namespace
{

/**
 * SCRATCH: per-accelerator scratchpads fed by the oracle DMA
 * engine. Invocations are segmented into windows whose footprint
 * fits the scratchpad; each window is DMA fill -> replay -> drain,
 * and the accelerator's DMA-blocked cycles accumulate into
 * dmaWaitCycles() (the Figure 6b DMA stack).
 */
class ScratchFrontend final : public TileFrontend
{
  public:
    explicit ScratchFrontend(const FrontendEnv &e)
        : TileFrontend(core::SystemKind::Scratch), _ctx(e.ctx),
          _cfg(e.cfg), _prog(e.prog)
    {
        for (std::uint32_t a = 0; a < e.numAccels; ++a) {
            _spms.push_back(std::make_unique<mem::Scratchpad>(
                _ctx, e.cfg.scratchpadBytes,
                "axc" + std::to_string(a) + ".spm"));
            _spmPorts.push_back(
                std::make_unique<ScratchpadFrontend>(
                    _ctx, *_spms.back()));
        }
        // The DMA engine resides at the LLC; its transfer path to
        // the tile is the same physical link class as L1X<->L2 and
        // books against the same components so energy stacks are
        // comparable across systems. Latency includes the average
        // ring traversal.
        _dmaLink = std::make_unique<interconnect::Link>(
            _ctx, interconnect::LinkParams{
                      "dma", energy::LinkClass::L1xToL2, 7,
                      energy::comp::kLinkL1xL2Msg,
                      energy::comp::kLinkL1xL2Data});
        DmaParams dp;
        dp.maxOutstanding = e.cfg.dmaMaxOutstanding;
        _dma = std::make_unique<DmaEngine>(_ctx, dp, e.llc,
                                           _dmaLink.get(), e.pt);
        _windows.resize(e.prog.invocations.size());
    }

    void
    launch(std::size_t idx, ReplayCore &core,
           sim::SmallFn<void()> done) override
    {
        runWindows(idx, 0, core, std::move(done));
    }

    /** One DMA engine serializes the windows. */
    bool supportsOverlap() const override { return false; }

    void
    collect(core::RunResult &r) const override
    {
        r.dmaCycles += _dmaWait;
        r.dmaOps += _dma->dmaOps();
        r.dmaBytes += _dma->bytesTransferred();
    }

  private:
    void
    runWindows(std::size_t inv_idx, std::size_t widx,
               ReplayCore &core, sim::SmallFn<void()> then)
    {
        const trace::Invocation &inv = _prog.invocations[inv_idx];
        const trace::FunctionMeta &meta =
            _prog.functions[static_cast<std::size_t>(inv.func)];
        auto &wins = _windows[inv_idx];
        if (widx == 0 && wins.empty()) {
            wins = trace::segmentWindows(
                inv, _cfg.scratchpadBytes / kLineBytes);
        }
        if (widx >= wins.size()) {
            then();
            return;
        }
        const trace::DmaWindow &w = wins[widx];
        auto spm_idx = static_cast<std::size_t>(meta.accel);
        mem::Scratchpad &spm = *_spms[spm_idx];
        ScratchpadFrontend &port = *_spmPorts[spm_idx];

        Tick fill_start = _ctx.now();
        _dma->fill(
            w.readLines, _prog.pid, spm,
            [this, inv_idx, widx, &inv, &w, &spm, &port, &core,
             mlp = meta.mlp, fill_start,
             then = std::move(then)]() mutable {
                _dmaWait += _ctx.now() - fill_start;
                port.setWindow(w);
                core.run(
                    inv.ops, w.beginOp, w.endOp, mlp, port,
                    [this, inv_idx, widx, &core, &w, &spm,
                     then = std::move(then)]() mutable {
                        Tick drain_start = _ctx.now();
                        _dma->drain(
                            w.dirtyLines, _prog.pid, spm,
                            [this, inv_idx, widx, &core,
                             drain_start,
                             then = std::move(then)]() mutable {
                                _dmaWait +=
                                    _ctx.now() - drain_start;
                                runWindows(inv_idx, widx + 1, core,
                                           std::move(then));
                            });
                    });
            });
    }

    SimContext &_ctx;
    const core::SystemConfig &_cfg;
    const trace::Program &_prog;
    std::vector<std::unique_ptr<mem::Scratchpad>> _spms;
    std::vector<std::unique_ptr<ScratchpadFrontend>> _spmPorts;
    std::unique_ptr<interconnect::Link> _dmaLink;
    std::unique_ptr<DmaEngine> _dma;
    /// Per-invocation window decomposition (lazy).
    std::vector<std::vector<trace::DmaWindow>> _windows;
    Tick _dmaWait = 0;
};

/**
 * SHARED: the accelerators access one shared MESI L1X directly over
 * the tile link. The MemPort adapter translates virtual accelerator
 * accesses and books the per-access AXC<->L1X link traffic (request
 * message + word response) that makes SHARED expensive in link
 * energy (Section 5.2; Figure 6c's "L0X->L1X MSG" / "L1X->L0X DATA"
 * for the SHARED design).
 */
class SharedFrontend final : public TileFrontend
{
  public:
    explicit SharedFrontend(const FrontendEnv &e)
        : TileFrontend(core::SystemKind::Shared), _ctx(e.ctx),
          _prog(e.prog), _llc(e.llc)
    {
        _tileLink = std::make_unique<interconnect::Link>(
            _ctx, interconnect::LinkParams{
                      "l0x_l1x", energy::LinkClass::AxcToL1x, 1,
                      energy::comp::kLinkL0xL1xMsg,
                      energy::comp::kLinkL0xL1xData});
        _llcLink = std::make_unique<interconnect::Link>(
            _ctx, interconnect::LinkParams{
                      "l1x_l2", energy::LinkClass::L1xToL2, 3,
                      energy::comp::kLinkL1xL2Msg,
                      energy::comp::kLinkL1xL2Data});
        host::HostL1Params sp;
        sp.name = "l1x";
        sp.capacityBytes = e.cfg.l1xBytes;
        sp.assoc = e.cfg.l1xAssoc;
        sp.banks = e.cfg.l1xBanks;
        sp.energyComponent = energy::comp::kL1x;
        sp.ringNode = 4; // the tile sits across the ring
        sp.wordAccessScale = 0.5;
        _l1x = std::make_unique<host::HostL1>(_ctx, sp, e.llc,
                                              _llcLink.get());
        _port = std::make_unique<Port>(_ctx, *_l1x, *_tileLink,
                                       e.pt, e.prog.pid);
    }

    void
    launch(std::size_t idx, ReplayCore &core,
           sim::SmallFn<void()> done) override
    {
        const trace::Invocation &inv = _prog.invocations[idx];
        const trace::FunctionMeta &meta =
            _prog.functions[static_cast<std::size_t>(inv.func)];
        core.run(inv.ops, 0, inv.ops.size(), meta.mlp, *_port,
                 std::move(done));
    }

    void
    collect(core::RunResult &r) const override
    {
        r.l1xHits += _l1x->hits();
        r.l1xMisses += _l1x->misses();
        r.fwdsToTile += _llc.fwdsToAgent(_l1x->agentId());
    }

  private:
    /** The request crosses the 1-cycle AXC-L1X link (the hop), the
     *  L1X serves it, and the response crosses back. */
    class Port : public SplitPort
    {
      public:
        Port(SimContext &ctx, host::HostL1 &l1x,
             interconnect::Link &link, const vm::PageTable &pt,
             Pid pid)
            : SplitPort(ctx.eq), _ctx(ctx), _l1x(l1x), _link(link),
              _pt(pt), _pid(pid)
        {
        }

        /** The request reaches the L1X. */
        void
        hop(Addr va, bool is_write, PortDone done) override
        {
            // The L1X's completion has room for {this, is_write} and
            // an index, not for @p done too: park it in a slot.
            std::uint32_t slot = park(done);
            _l1x.access(_pt.translate(_pid, va), is_write,
                        [this, is_write, slot] {
                            // Response: word payload for loads, ack
                            // for stores.
                            _link.book(
                                is_write
                                    ? interconnect::MsgClass::Control
                                    : interconnect::MsgClass::Word);
                            _ctx.eq.scheduleIn(_link.latency(),
                                               unpark(slot));
                        });
        }

      private:
        void
        begin(Addr, bool is_write) override
        {
            // Request: 1 flit (+ the store's word payload).
            _link.book(is_write ? interconnect::MsgClass::Word
                                : interconnect::MsgClass::Control);
        }

        Cycles hopLatency() const override { return _link.latency(); }

        std::uint32_t
        park(PortDone done)
        {
            if (_freeSlots.empty()) {
                _inFlight.push_back(done);
                return static_cast<std::uint32_t>(_inFlight.size() - 1);
            }
            std::uint32_t slot = _freeSlots.back();
            _freeSlots.pop_back();
            _inFlight[slot] = done;
            return slot;
        }

        PortDone
        unpark(std::uint32_t slot)
        {
            _freeSlots.push_back(slot);
            return _inFlight[slot];
        }

        SimContext &_ctx;
        host::HostL1 &_l1x;
        interconnect::Link &_link;
        const vm::PageTable &_pt;
        Pid _pid;
        /// Completions of the accesses in flight, by slot (at most
        /// the cores' MLP plus their store buffers), and the free
        /// slots.
        std::vector<PortDone> _inFlight;
        std::vector<std::uint32_t> _freeSlots;
    };

    SimContext &_ctx;
    const trace::Program &_prog;
    host::Llc &_llc;
    std::unique_ptr<interconnect::Link> _tileLink;
    std::unique_ptr<interconnect::Link> _llcLink;
    std::unique_ptr<host::HostL1> _l1x;
    std::unique_ptr<Port> _port;
};

/**
 * FUSION-MESI: the FUSION geometry with a conventional directory
 * MESI protocol inside the tile (the design ACC is argued against).
 */
class MesiFrontend final : public TileFrontend
{
  public:
    explicit MesiFrontend(const FrontendEnv &e)
        : TileFrontend(core::SystemKind::FusionMesi), _prog(e.prog),
          _llc(e.llc)
    {
        L1xParams l1x;
        l1x.capacityBytes = e.cfg.l1xBytes;
        l1x.assoc = e.cfg.l1xAssoc;
        l1x.banks = e.cfg.l1xBanks;
        _tile = std::make_unique<MesiTile>(e.ctx, e.numAccels,
                                           e.cfg.l0xBytes,
                                           e.cfg.l0xAssoc, l1x,
                                           e.llc, e.pt);
        for (std::uint32_t a = 0; a < e.numAccels; ++a)
            _tile->l0x(static_cast<AccelId>(a)).setPid(e.prog.pid);
    }

    void
    launch(std::size_t idx, ReplayCore &core,
           sim::SmallFn<void()> done) override
    {
        const trace::Invocation &inv = _prog.invocations[idx];
        const trace::FunctionMeta &meta =
            _prog.functions[static_cast<std::size_t>(inv.func)];
        core.run(inv.ops, 0, inv.ops.size(), meta.mlp,
                 _tile->l0x(meta.accel), std::move(done));
    }

    void
    collect(core::RunResult &r) const override
    {
        r.axTlbLookups += _tile->tlb().lookups();
        r.axRmapLookups += _tile->rmap().lookups();
        r.l1xHits += _tile->l1x().hits();
        r.l1xMisses += _tile->l1x().misses();
        for (std::uint32_t a = 0; a < _tile->numAccels(); ++a) {
            const L0xMesi &l0 =
                _tile->l0x(static_cast<AccelId>(a));
            r.l0xFills += l0.fills();
            r.l0xWritebacks += l0.writebacks();
        }
        r.fwdsToTile += _llc.fwdsToAgent(_tile->l1x().agentId());
    }

  private:
    const trace::Program &_prog;
    host::Llc &_llc;
    std::unique_ptr<MesiTile> _tile;
};

/**
 * FUSION / FUSION-Dx: private L0Xs + shared ACC L1X, accelerators
 * block-partitioned over numTiles tiles, with the Dx variant adding
 * trace-derived L0X->L0X write forwarding.
 */
class FusionFrontend final : public TileFrontend
{
  public:
    FusionFrontend(core::SystemKind kind, const FrontendEnv &e,
                   const trace::ForwardPlan *plan)
        : TileFrontend(kind), _prog(e.prog), _llc(e.llc)
    {
        std::uint32_t num_tiles =
            std::min(std::max(1u, e.cfg.numTiles), e.numAccels);
        // Block-partition accelerators over the tiles.
        std::uint32_t per =
            (e.numAccels + num_tiles - 1) / num_tiles;
        _tileOf.resize(e.numAccels);
        _localId.resize(e.numAccels);
        for (std::uint32_t t = 0; t < num_tiles; ++t) {
            std::uint32_t lo = t * per;
            std::uint32_t hi =
                std::min(e.numAccels, (t + 1) * per);
            if (lo >= hi)
                break;
            TileParams tp;
            tp.numAccels = hi - lo;
            tp.l0xBytes = e.cfg.l0xBytes;
            tp.l0xAssoc = e.cfg.l0xAssoc;
            tp.l0xRepl = e.cfg.l0xRepl;
            tp.writeThrough = e.cfg.l0xWriteThrough;
            tp.enableDx = kind == core::SystemKind::FusionDx;
            tp.l1x.capacityBytes = e.cfg.l1xBytes;
            tp.l1x.assoc = e.cfg.l1xAssoc;
            tp.l1x.banks = e.cfg.l1xBanks;
            tp.l1x.name = num_tiles == 1
                              ? std::string("l1x")
                              : "l1x" + std::to_string(t);
            // Spread tiles over the far side of the ring.
            tp.l1x.ringNode = 4 + t;
            _tiles.push_back(std::make_unique<FusionTile>(
                e.ctx, tp, e.llc, e.pt));
            for (std::uint32_t a = lo; a < hi; ++a) {
                _tileOf[a] = t;
                _localId[a] = static_cast<AccelId>(a - lo);
            }
        }
        if (kind == core::SystemKind::FusionDx) {
            if (plan)
                resolveForwardPlan(*plan);
            else
                resolveForwardPlan(trace::planForwarding(_prog));
        }
        // Lease lengths are per accelerated function; prime each
        // L0X with its function's LT so Dx pushes landing before
        // the consumer's first invocation carry the right lease.
        for (const auto &f : _prog.functions)
            l0xFor(f.accel).setFunction(f.leaseTime, e.prog.pid);
    }

    void
    launch(std::size_t idx, ReplayCore &core,
           sim::SmallFn<void()> done) override
    {
        const trace::Invocation &inv = _prog.invocations[idx];
        const trace::FunctionMeta &meta =
            _prog.functions[static_cast<std::size_t>(inv.func)];
        FusionTile &tile = tileFor(meta.accel);
        AccelId local =
            _localId[static_cast<std::size_t>(meta.accel)];
        L0x &l0 = tile.l0x(local);
        l0.setFunction(meta.leaseTime, _prog.pid);
        if (kind() == core::SystemKind::FusionDx) {
            const auto &targets = _fwdTargets[idx];
            l0.setForwardTargets(targets.empty() ? nullptr : &targets);
        }
        core.run(inv.ops, 0, inv.ops.size(), meta.mlp, l0,
                 [&tile, local, done = std::move(done)]() mutable {
                     tile.finishInvocation(local);
                     done();
                 });
    }

    void
    deactivate() override
    {
        // Mode switch away from FUSION: flush dirty tile state so
        // the next organization starts from the host-owned copy
        // (the orchestrator charges the modeled flush cost).
        for (auto &tile : _tiles)
            tile->drainAll();
    }

    FrontendCounters
    counters() const override
    {
        FrontendCounters c;
        for (const auto &tile : _tiles) {
            c.l1xHits += tile->l1x().hits();
            c.l1xMisses += tile->l1x().misses();
            for (std::uint32_t a = 0; a < tile->numAccels(); ++a) {
                const L0x &l0 = tile->l0x(static_cast<AccelId>(a));
                c.l0xHits += l0.hits();
                c.l0xMisses += l0.misses();
            }
        }
        return c;
    }

    void
    collect(core::RunResult &r) const override
    {
        for (const auto &tile : _tiles) {
            r.axTlbLookups += tile->tlb().lookups();
            r.axRmapLookups += tile->rmap().lookups();
            r.l1xHits += tile->l1x().hits();
            r.l1xMisses += tile->l1x().misses();
            for (std::uint32_t a = 0; a < tile->numAccels(); ++a) {
                const L0x &l0 = tile->l0x(static_cast<AccelId>(a));
                r.l0xFills += l0.fills();
                r.l0xWritebacks += l0.writebacksSent();
                r.l0xForwards += l0.forwardsOut();
            }
            r.fwdsToTile +=
                _llc.fwdsToAgent(tile->l1x().agentId());
        }
    }

    std::vector<std::unique_ptr<FusionTile>> *
    fusionTiles() override
    {
        return &_tiles;
    }

  private:
    FusionTile &
    tileFor(AccelId a)
    {
        return *_tiles[_tileOf[static_cast<std::size_t>(a)]];
    }

    L0x &
    l0xFor(AccelId a)
    {
        return tileFor(a).l0x(_localId[static_cast<std::size_t>(a)]);
    }

    /**
     * Resolve @p plan into one line -> consumer L0X map per
     * invocation. Only consumers on the producer's own tile can
     * receive pushes (the L0X-L0X link is intra-tile).
     */
    void
    resolveForwardPlan(const trace::ForwardPlan &plan)
    {
        _fwdTargets.resize(_prog.invocations.size());
        for (const auto &[idx, lines] : plan) {
            AccelId producer =
                _prog.functions[static_cast<std::size_t>(
                                    _prog.invocations[idx].func)]
                    .accel;
            auto &targets = _fwdTargets[idx];
            for (const auto &[line, consumer] : lines) {
                if (_tileOf[static_cast<std::size_t>(consumer)] ==
                    _tileOf[static_cast<std::size_t>(producer)])
                    targets[line] = &l0xFor(consumer);
            }
        }
    }

    const trace::Program &_prog;
    host::Llc &_llc;
    std::vector<std::unique_ptr<FusionTile>> _tiles;
    std::vector<std::uint32_t> _tileOf;
    std::vector<AccelId> _localId;
    /// FUSION-Dx: per invocation, line -> consumer L0X (empty for
    /// FUSION and for invocations that forward nothing).
    std::vector<std::unordered_map<Addr, L0x *>> _fwdTargets;
};

} // namespace

std::unique_ptr<TileFrontend>
makeTileFrontend(core::SystemKind kind, const FrontendEnv &env,
                 const trace::ForwardPlan *plan)
{
    switch (kind) {
      case core::SystemKind::Scratch:
        return std::make_unique<ScratchFrontend>(env);
      case core::SystemKind::Shared:
        return std::make_unique<SharedFrontend>(env);
      case core::SystemKind::FusionMesi:
        return std::make_unique<MesiFrontend>(env);
      case core::SystemKind::Fusion:
      case core::SystemKind::FusionDx:
        return std::make_unique<FusionFrontend>(kind, env, plan);
      case core::SystemKind::Auto:
        break;
    }
    fusion_panic("makeTileFrontend: not a static system kind");
}

} // namespace fusion::accel
