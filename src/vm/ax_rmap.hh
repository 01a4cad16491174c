/**
 * @file
 * AX-RMAP: the accelerator tile's reverse map.
 *
 * The host tile addresses the L1X with *physical* addresses on
 * forwarded MESI requests, but the L1X is virtually indexed. Rather
 * than fattening every host control message with a virtual address,
 * FUSION spends area on a per-tile reverse map indexed by physical
 * line address that stores a pointer (way, set — here the virtual
 * line address and pid) into the shared L1X (Section 3.2). The
 * directory filters: only lines actually cached in the tile generate
 * AX-RMAP lookups, so the structure stays tiny and cold (Table 6).
 *
 * The RMAP doubles as the tile's synonym filter (Appendix): on an
 * L1X fill the controller probes the RMAP with the new line's PA and
 * evicts any duplicate cached under a different VA, keeping at most
 * one synonym resident per tile.
 */

#ifndef FUSION_VM_AX_RMAP_HH
#define FUSION_VM_AX_RMAP_HH

#include <optional>

#include "mem/line_table.hh"
#include "sim/sim_context.hh"
#include "sim/types.hh"

namespace fusion::vm
{

/** What the RMAP stores per physical line: the L1X "pointer". */
struct RmapEntry
{
    Addr vline = 0; ///< virtual line address indexing the L1X
    Pid pid = 0;
};

/** AX-RMAP parameters. */
struct AxRmapParams
{
    double lookupPj = 1.2; ///< PA-indexed probe
    Cycles latency = 1;
};

/** Physical-line-address -> L1X-pointer map. */
class AxRmap
{
  public:
    AxRmap(SimContext &ctx, const AxRmapParams &p);

    /** Track a line on L1X fill. */
    void insert(Addr pline, Addr vline, Pid pid);

    /** Drop a line on L1X eviction. */
    void erase(Addr pline);

    /**
     * Probe on a forwarded host request (books energy + stats).
     * @return the L1X pointer if the tile caches the line.
     */
    std::optional<RmapEntry> lookup(Addr pline);

    /**
     * Probe without booking a forwarded-request lookup (synonym
     * check on the tile's own fills).
     */
    std::optional<RmapEntry> probeForSynonym(Addr pline);

    std::uint64_t lookups() const { return _lookups; }
    std::size_t size() const { return _map.size(); }
    Cycles latency() const { return _p.latency; }

  private:
    SimContext &_ctx;
    AxRmapParams _p;
    mem::LineTable<RmapEntry> _map; ///< keyed by (pline, 0)
    // Counters, bound into ctx.stats under "ax_rmap.<stat>".
    std::uint64_t _inserts = 0;
    std::uint64_t _lookups = 0;
    std::uint64_t _synonymProbes = 0;
    energy::ComponentId _ecRmap = energy::kInvalidComponent;
};

} // namespace fusion::vm

#endif // FUSION_VM_AX_RMAP_HH
