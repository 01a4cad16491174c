/**
 * @file
 * Oracle coherent DMA engine for the SCRATCH baseline (Section 4).
 *
 * The paper assumes "a particularly aggressive oracle DMA
 * implementation": DMA operations are auto-generated from the
 * dynamic trace (only read data is DMA'd in, only dirty data out),
 * the controller resides at the host LLC (no command-issue
 * overhead), and the full controller state machine is modelled —
 * IDLE -> FILL -> (accelerator window runs) -> DRAIN.
 *
 * Transfers are coherent: reads snoop the freshest copy through the
 * LLC directory; writes invalidate stale copies (ARM ACP / IBM
 * PowerBus style, Section 2.1).
 */

#ifndef FUSION_ACCEL_DMA_ENGINE_HH
#define FUSION_ACCEL_DMA_ENGINE_HH

#include <vector>

#include "host/llc.hh"
#include "interconnect/link.hh"
#include "mem/scratchpad.hh"
#include "obs/span_tracer.hh"
#include "sim/sim_context.hh"
#include "vm/page_table.hh"

namespace fusion::accel
{

/** DMA engine parameters. */
struct DmaParams
{
    std::uint32_t maxOutstanding = 8; ///< in-flight line transfers
};

/** Controller states (exposed for tests). */
enum class DmaState
{
    Idle,
    Fill,
    Drain
};

/** The oracle DMA controller. */
class DmaEngine
{
  public:
    /**
     * @param dma_link the LLC <-> scratchpad transfer link (same
     *        physical path as the tile's L1X link, 6 pJ/B)
     */
    DmaEngine(SimContext &ctx, const DmaParams &p, host::Llc &llc,
              interconnect::Link *dma_link,
              const vm::PageTable &pt);

    /**
     * FILL: pull @p vlines (virtual line addresses, translated by
     * the host at programming time — free for the oracle) from the
     * LLC into @p spm. @p done fires when the window is resident.
     */
    void fill(const std::vector<Addr> &vlines, Pid pid,
              mem::Scratchpad &spm, sim::SmallFn<void()> done);

    /**
     * DRAIN: push dirty @p vlines from @p spm back to the LLC.
     */
    void drain(const std::vector<Addr> &vlines, Pid pid,
               mem::Scratchpad &spm, sim::SmallFn<void()> done);

    DmaState state() const { return _state; }
    std::uint64_t lineTransfers() const { return _lineTransfers; }
    std::uint64_t bytesTransferred() const
    {
        return _lineTransfers * kLineBytes;
    }
    std::uint64_t dmaOps() const { return _fillOps + _drainOps; }

  private:
    void pump();

    SimContext &_ctx;
    DmaParams _p;
    host::Llc &_llc;
    interconnect::Link *_link;
    const vm::PageTable &_pt;

    DmaState _state = DmaState::Idle;
    const std::vector<Addr> *_lines = nullptr;
    Pid _pid = 0;
    mem::Scratchpad *_spm = nullptr;
    std::size_t _pos = 0;
    std::uint32_t _outstanding = 0;
    sim::SmallFn<void()> _done;

    // Counters, bound into ctx.stats under "dma.<stat>".
    std::uint64_t _fillOps = 0;
    std::uint64_t _drainOps = 0;
    std::uint64_t _lineTransfers = 0;
    /// Lines handed to fill()/drain() — the line-conservation
    /// invariant checks every planned line was actually transferred.
    std::uint64_t _linesPlanned = 0;
    stats::Histogram *_stChunkLatency;
    /// Telemetry span tracer (null when tracing is off).
    obs::SpanTracer *_tracer = nullptr;
    std::uint32_t _track = 0;
};

} // namespace fusion::accel

#endif // FUSION_ACCEL_DMA_ENGINE_HH
