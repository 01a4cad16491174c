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

/** Scratchpad-backed memory port: the array access books at issue,
 *  and the data returns one access latency later. */
class ScratchpadFrontend : public SplitPort
{
  public:
    ScratchpadFrontend(SimContext &ctx, mem::Scratchpad &spm);

    /** Declare the current DMA window: its read and dirty lines
     *  are the resident ones. */
    void setWindow(const trace::DmaWindow &w) { _window = &w; }

    /** The data returns: the access commits. */
    void
    hop(Addr, bool, PortDone done) override
    {
        done();
    }

  private:
    void begin(Addr va, bool is_write) override;
    Cycles hopLatency() const override { return _spm.latency(); }

    mem::Scratchpad &_spm;
    const trace::DmaWindow *_window = nullptr;
};

} // namespace fusion::accel

#endif // FUSION_ACCEL_SCRATCHPAD_FRONTEND_HH
