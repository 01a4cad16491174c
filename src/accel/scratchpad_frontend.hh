/**
 * @file
 * MemPort adapter exposing a scratchpad to an accelerator core
 * (SCRATCH baseline). Validates that every access falls inside the
 * DMA-resident window — a violation means the oracle windowing is
 * broken, which is a simulator bug.
 */

#ifndef FUSION_ACCEL_SCRATCHPAD_FRONTEND_HH
#define FUSION_ACCEL_SCRATCHPAD_FRONTEND_HH

#include "accel/mem_port.hh"
#include "mem/scratchpad.hh"
#include "sim/sim_context.hh"
#include "trace/analysis.hh"

namespace fusion::accel
{

/** Scratchpad-backed memory port. */
class ScratchpadFrontend : public MemPort
{
  public:
    ScratchpadFrontend(SimContext &ctx, mem::Scratchpad &spm);

    /** Declare the current DMA window: its read and dirty lines
     *  are the resident ones. */
    void setWindow(const trace::DmaWindow &w) { _window = &w; }

    void access(Addr va, std::uint32_t size, bool is_write,
                PortDone done) override;

  private:
    SimContext &_ctx;
    mem::Scratchpad &_spm;
    const trace::DmaWindow *_window = nullptr;
};

} // namespace fusion::accel

#endif // FUSION_ACCEL_SCRATCHPAD_FRONTEND_HH
