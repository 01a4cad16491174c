/**
 * @file
 * AX-TLB: the accelerator tile's translation lookaside buffer.
 *
 * FUSION keeps the TLB *off* the accelerator's critical path: L0X
 * and L1X are virtually indexed, and translation happens only on the
 * shared L1X's miss path when a request transitions into the host
 * tile's physical address space (Section 3.2, Figure 3; evaluated in
 * Section 5.6 / Table 6).
 */

#ifndef FUSION_VM_AX_TLB_HH
#define FUSION_VM_AX_TLB_HH

#include <vector>

#include "sim/sim_context.hh"
#include "sim/small_fn.hh"
#include "vm/page_table.hh"

namespace fusion::vm
{

/** AX-TLB parameters. */
struct AxTlbParams
{
    std::uint32_t entries = 32;
    Cycles hitLatency = 1;
    Cycles walkLatency = 60; ///< page-table walk on a TLB miss
    double lookupPj = 0.8;   ///< small CAM lookup
};

/** Fully-associative LRU TLB with a fixed-latency walker. */
class AxTlb
{
  public:
    using Translated = sim::SmallFn<void(Addr pa)>;

    AxTlb(SimContext &ctx, const AxTlbParams &p,
          const PageTable &pt);

    /**
     * Translate (pid, va); @p done receives the physical address
     * after the hit latency or the walk latency.
     */
    void translate(Pid pid, Addr va, Translated done);

    std::uint64_t lookups() const { return _lookups; }
    std::uint64_t misses() const { return _misses; }

  private:
    /** One translation, stamped with the lookup that last used it:
     *  the smallest stamp is the LRU victim. */
    struct Slot
    {
        Pid pid;
        Addr vpage;
        Addr ppageBase;
        std::uint64_t lastUse;
    };

    SimContext &_ctx;
    AxTlbParams _p;
    const PageTable &_pt;
    std::vector<Slot> _slots; ///< scanned per lookup; at most p.entries
    // Counters, bound into ctx.stats under "ax_tlb.<stat>".
    std::uint64_t _lookups = 0;
    std::uint64_t _misses = 0;
    energy::ComponentId _ecTlb = energy::kInvalidComponent;
};

} // namespace fusion::vm

#endif // FUSION_VM_AX_TLB_HH
