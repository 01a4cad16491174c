/**
 * @file
 * The FUSION accelerator tile: per-accelerator private L0X caches, a
 * banked shared L1X running the ACC protocol, the AX-TLB on the L1X
 * miss path, the AX-RMAP for host-forwarded requests, and the tile's
 * links (Figure 3, top).
 */

#ifndef FUSION_ACCEL_TILE_HH
#define FUSION_ACCEL_TILE_HH

#include <memory>
#include <vector>

#include "accel/l0x.hh"
#include "accel/l1x.hh"
#include "host/llc.hh"
#include "vm/ax_rmap.hh"
#include "vm/ax_tlb.hh"
#include "vm/page_table.hh"

namespace fusion::accel
{

/** Tile configuration. */
struct TileParams
{
    std::uint32_t numAccels = 2;
    std::uint64_t l0xBytes = 4 * 1024; ///< Table 2: 4 or 8 KB
    std::uint32_t l0xAssoc = 4;
    mem::ReplPolicy l0xRepl = mem::ReplPolicy::Lru;
    bool writeThrough = false; ///< Table 4 ablation
    bool enableDx = false;     ///< FUSION-Dx write forwarding
    L1xParams l1x;
    vm::AxTlbParams tlb;
    Cycles tileLinkLatency = 1; ///< L0X <-> L1X
    Cycles llcLinkLatency = 3;  ///< tile <-> host LLC entry
};

/** The assembled accelerator tile. */
class FusionTile
{
  public:
    FusionTile(SimContext &ctx, const TileParams &p, host::Llc &llc,
               const vm::PageTable &pt);

    L0x &l0x(AccelId a) { return *_l0xs[static_cast<std::size_t>(a)]; }
    L1xAcc &l1x() { return *_l1x; }
    vm::AxTlb &tlb() { return *_tlb; }
    vm::AxRmap &rmap() { return *_rmap; }
    interconnect::Link &tileLink() { return *_tileLink; }
    std::uint32_t numAccels() const { return _p.numAccels; }

    /**
     * Invocation on @p producer finished: push the lines its L0X's
     * forward targets name (FUSION-Dx) and clear the targets.
     */
    void finishInvocation(AccelId producer);

    /** Flush every dirty line in the tile to the host (teardown). */
    void drainAll();

  private:
    TileParams _p;
    std::unique_ptr<interconnect::Link> _tileLink;
    std::unique_ptr<interconnect::Link> _llcLink;
    std::unique_ptr<interconnect::Link> _fwdLink;
    std::unique_ptr<vm::AxTlb> _tlb;
    std::unique_ptr<vm::AxRmap> _rmap;
    std::unique_ptr<L1xAcc> _l1x;
    std::vector<std::unique_ptr<L0x>> _l0xs;
};

} // namespace fusion::accel

#endif // FUSION_ACCEL_TILE_HH
