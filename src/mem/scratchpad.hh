/**
 * @file
 * Per-accelerator scratchpad RAM for the SCRATCH baseline
 * (Section 2.1). A tagless, single-cycle, explicitly managed local
 * store; the DMA engine fills and drains it window-by-window.
 */

#ifndef FUSION_MEM_SCRATCHPAD_HH
#define FUSION_MEM_SCRATCHPAD_HH

#include <cstdint>

#include "energy/sram_model.hh"
#include "sim/sim_context.hh"
#include "sim/types.hh"

namespace fusion::mem
{

/** Scratchpad RAM model: energy and latency per access. */
class Scratchpad
{
  public:
    /**
     * @param ctx shared simulation services
     * @param capacity_bytes scratchpad capacity (paper: 4 or 8 KB)
     * @param name stats path prefix (e.g. "spm")
     */
    Scratchpad(SimContext &ctx, std::uint64_t capacity_bytes,
               const std::string &name);

    /** Capacity in bytes. */
    std::uint64_t capacityBytes() const { return _capacity; }

    /** Capacity in cache lines. */
    std::uint64_t
    capacityLines() const
    {
        return _capacity / kLineBytes;
    }

    /** Access latency (cycles). */
    Cycles latency() const { return _fig.latency; }

    /** Book one accelerator-side access (word granularity); its
     *  data returns latency() cycles later. */
    void access(bool is_write);

    /**
     * Book one DMA-side line transfer into/out of the scratchpad.
     */
    void dmaLineAccess(bool is_write);

    std::uint64_t reads() const { return _reads; }
    std::uint64_t writes() const { return _writes; }

  private:
    SimContext &_ctx;
    std::uint64_t _capacity;
    energy::SramFigures _fig;
    double _wordAccessPj;
    energy::ComponentId _ecSpm = energy::kInvalidComponent;
    // Counters, bound into ctx.stats under "<name>.<stat>".
    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;
    std::uint64_t _dmaLineXfers = 0;
};

} // namespace fusion::mem

#endif // FUSION_MEM_SCRATCHPAD_HH
