#include "accel/tile.hh"

#include <map>
#include <sstream>
#include <utility>

#include "sim/logging.hh"

namespace fusion::accel
{

FusionTile::FusionTile(SimContext &ctx, const TileParams &p,
                       host::Llc &llc, const vm::PageTable &pt)
    : _p(p)
{
    fusion_assert(p.numAccels > 0, "tile needs accelerators");

    _tileLink = std::make_unique<interconnect::Link>(
        ctx, interconnect::LinkParams{
                 "l0x_l1x", energy::LinkClass::AxcToL1x,
                 p.tileLinkLatency, energy::comp::kLinkL0xL1xMsg,
                 energy::comp::kLinkL0xL1xData});
    _llcLink = std::make_unique<interconnect::Link>(
        ctx, interconnect::LinkParams{
                 "l1x_l2", energy::LinkClass::L1xToL2,
                 p.llcLinkLatency, energy::comp::kLinkL1xL2Msg,
                 energy::comp::kLinkL1xL2Data});
    _fwdLink = std::make_unique<interconnect::Link>(
        ctx, interconnect::LinkParams{
                 "l0x_l0x", energy::LinkClass::L0xToL0x, 1,
                 energy::comp::kLinkL0xL0x,
                 energy::comp::kLinkL0xL0x});

    _tlb = std::make_unique<vm::AxTlb>(ctx, p.tlb, pt);
    _rmap = std::make_unique<vm::AxRmap>(ctx, vm::AxRmapParams{});
    _l1x = std::make_unique<L1xAcc>(ctx, p.l1x, llc, _tileLink.get(),
                                    _llcLink.get(), *_tlb, *_rmap);

    for (std::uint32_t a = 0; a < p.numAccels; ++a) {
        L0xParams lp;
        lp.name = "axc" + std::to_string(a) + ".l0x";
        lp.capacityBytes = p.l0xBytes;
        lp.assoc = p.l0xAssoc;
        lp.repl = p.l0xRepl;
        lp.writeThrough = p.writeThrough;
        lp.accel = static_cast<AccelId>(a);
        _l0xs.push_back(std::make_unique<L0x>(
            ctx, lp, *_l1x, _tileLink.get(),
            p.enableDx ? _fwdLink.get() : nullptr));
    }

    // Tile-level ACC invariants: these relate state *across* the
    // L0Xs and the L1X, so neither cache can check them alone.
    ctx.guard.registerInvariant(
        "tile", [this](const guard::InvariantContext &ic,
                       std::vector<std::string> &out) {
            // Single-writer: at most one dirty copy of a (line, pid)
            // across the tile's L0Xs (ACC write epochs are
            // exclusive; Dx moves the dirty copy, never clones it).
            std::map<std::pair<Addr, Pid>, int> dirty_copies;
            for (const auto &l0 : _l0xs) {
                l0->forEachValidLine([&](const mem::CacheLine &l) {
                    if (l.dirty)
                        ++dirty_copies[{l.lineAddr, l.pid}];
                });
            }
            for (const auto &[key, n] : dirty_copies) {
                if (n > 1) {
                    std::ostringstream os;
                    os << n << " dirty L0X copies of line 0x"
                       << std::hex << key.first;
                    out.push_back(os.str());
                }
            }
            // Lease bounds: every live L0X lease must be covered by
            // the L1X GTIME for that line — that is what lets the
            // L1X answer host demands without probing the L0Xs.
            for (const auto &l0 : _l0xs) {
                l0->forEachValidLine([&](const mem::CacheLine &l) {
                    Tick end = std::max(l.ltime, l.wepochEnd);
                    if (end <= ic.now)
                        return; // lease expired; copy is dead
                    const mem::CacheLine *up =
                        _l1x->findLine(l.lineAddr, l.pid);
                    // Host demand may have evicted the L1X line into
                    // the writeback buffer, where the PUTX stalls
                    // until GTIME expires.
                    bool buffered =
                        _l1x->hasWbBufferedLine(l.lineAddr, l.pid);
                    if (!(up && up->gtime >= end) && !buffered) {
                        std::ostringstream os;
                        os << "L0X lease (end=" << std::dec << end
                           << ") not covered by L1X GTIME @ 0x"
                           << std::hex << l.lineAddr;
                        out.push_back(os.str());
                    }
                    // Dirty copy implies an open write epoch, which
                    // must hold the L1X line locked so readers queue.
                    if (l.dirty && up && !up->locked) {
                        std::ostringstream os2;
                        os2 << "dirty L0X copy but L1X unlocked @ 0x"
                            << std::hex << l.lineAddr;
                        out.push_back(os2.str());
                    }
                });
            }
        });
}

void
FusionTile::finishInvocation(AccelId producer)
{
    if (!_p.enableDx)
        return;
    l0x(producer).forwardPlannedLines();
    l0x(producer).setForwardTargets(nullptr);
}

void
FusionTile::drainAll()
{
    for (auto &l0 : _l0xs)
        l0->drainDirty();
}

} // namespace fusion::accel
