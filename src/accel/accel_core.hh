/**
 * @file
 * Fixed-function accelerator core timing model.
 *
 * Following the paper's Aladdin-style methodology (Section 4), the
 * dynamic trace of an offloaded function is replayed cycle by cycle:
 * compute bursts retire at the datapath width per cycle, and memory
 * operations issue in program order through a non-blocking port with
 * at most MLP operations outstanding (the per-function memory-level
 * parallelism of Table 1).
 *
 * Compute energy is an Aladdin-style activity count: 0.5 pJ per
 * integer op [Balfour] and 2 pJ per floating-point op, booked
 * against the axc.compute component.
 */

#ifndef FUSION_ACCEL_ACCEL_CORE_HH
#define FUSION_ACCEL_ACCEL_CORE_HH

#include "accel/mem_port.hh"
#include "sim/sim_context.hh"
#include "trace/trace.hh"

namespace fusion::accel
{

/** Accelerator datapath parameters. */
struct AccelCoreParams
{
    std::uint32_t datapathWidth = 4; ///< compute ops per cycle
    /// Store-buffer entries: stores retire into the buffer and
    /// drain asynchronously (loads block on data, stores do not).
    std::uint32_t storeBuffer = 8;
    double intOpPj = 0.5;
    double fpOpPj = 2.0;
};

/** Trace-replay fixed-function accelerator. */
class AccelCore
{
  public:
    AccelCore(SimContext &ctx, const AccelCoreParams &p,
              AccelId id);

    /**
     * Replay ops [@p begin_op, @p end_op) of @p inv through
     * @p port with at most @p mlp memory ops outstanding.
     * @p done fires when the last op commits.
     */
    void run(const trace::Invocation &inv, std::uint32_t mlp,
             MemPort &port, std::size_t begin_op, std::size_t end_op,
             sim::SmallFn<void()> done);

    /** Convenience: replay the whole invocation. */
    void
    run(const trace::Invocation &inv, std::uint32_t mlp,
        MemPort &port, sim::SmallFn<void()> done)
    {
        run(inv, mlp, port, 0, inv.ops.size(), std::move(done));
    }

    AccelId id() const { return _id; }
    bool busy() const { return _active; }

  private:
    void pump();

    SimContext &_ctx;
    AccelCoreParams _p;
    AccelId _id;

    const trace::Invocation *_inv = nullptr;
    MemPort *_port = nullptr;
    std::uint32_t _mlp = 1;
    std::size_t _pos = 0;
    std::size_t _end = 0;
    std::uint32_t _outstandingLoads = 0;
    std::uint32_t _outstandingStores = 0;
    bool _active = false;
    bool _pumpScheduled = false;
    sim::SmallFn<void()> _done;
    energy::ComponentId _ecCompute = energy::kInvalidComponent;
    // Counters, bound into ctx.stats under "axc<id>.core.<stat>".
    std::uint64_t _intOps = 0;
    std::uint64_t _fpOps = 0;
    std::uint64_t _loads = 0;
    std::uint64_t _stores = 0;
};

} // namespace fusion::accel

#endif // FUSION_ACCEL_ACCEL_CORE_HH
