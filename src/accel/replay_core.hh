/**
 * @file
 * Trace-replay core timing model: the fixed-function accelerators
 * and the host core both run it.
 *
 * Following the paper's Aladdin-style methodology (Section 4), a
 * dynamic trace is replayed cycle by cycle: compute bursts retire at
 * the datapath width per cycle, and memory operations issue in
 * program order, at most one per cycle, through a non-blocking port
 * with a cap on outstanding loads (an accelerator's per-function
 * memory-level parallelism from Table 1; the host's load queue) and
 * on outstanding stores (the store buffer). This is deliberately
 * simpler than a full OOO pipeline for the host (Table 2: 4-way OOO,
 * 96-entry ROB, 32-entry load/store queues): the paper's conclusions
 * all live in the memory system, and the host model only has to
 * (a) produce the host phases that exercise MESI against the
 * accelerator tile and (b) rank function weights for Table 1's %Time
 * column.
 *
 * Compute energy is an Aladdin-style activity count: 0.5 pJ per
 * integer op [Balfour] and 2 pJ per floating-point op, booked against
 * the params' compute component (axc.compute for accelerators; the
 * host books none).
 */

#ifndef FUSION_ACCEL_REPLAY_CORE_HH
#define FUSION_ACCEL_REPLAY_CORE_HH

#include <string>
#include <vector>

#include "accel/mem_port.hh"
#include "sim/sim_context.hh"
#include "trace/trace.hh"

namespace fusion::accel
{

/** Replay core parameters. */
struct ReplayCoreParams
{
    /// Stats group ("<name>.loads", ...) and guard snapshot label:
    /// "axc<N>.core" or "host.core".
    std::string name = "core";
    /// Ledger name for compute energy; empty books none.
    std::string computeComponent;
    std::uint32_t width = 4; ///< compute ops retired per cycle
    /// Store-buffer entries: stores retire into the buffer and
    /// drain asynchronously (loads block on data, stores do not).
    std::uint32_t storeBuffer = 8;
    double intOpPj = 0.5;
    double fpOpPj = 2.0;
};

/** Trace-replay core. */
class ReplayCore
{
  public:
    ReplayCore(SimContext &ctx, const ReplayCoreParams &p);

    /**
     * Replay ops [@p begin, @p end) of @p ops through @p port with at
     * most @p max_loads loads outstanding. @p done fires when the
     * last op commits. Only one run() may be active at a time.
     */
    void run(const std::vector<trace::TraceOp> &ops, std::size_t begin,
             std::size_t end, std::uint32_t max_loads, MemPort &port,
             sim::SmallFn<void()> done);

    bool busy() const { return _active; }

  private:
    void pump();

    SimContext &_ctx;
    ReplayCoreParams _p;

    const std::vector<trace::TraceOp> *_ops = nullptr;
    MemPort *_port = nullptr;
    std::uint32_t _maxLoads = 1;
    std::size_t _pos = 0;
    std::size_t _end = 0;
    std::uint32_t _outstandingLoads = 0;
    std::uint32_t _outstandingStores = 0;
    bool _active = false;
    bool _pumpScheduled = false;
    sim::SmallFn<void()> _done;
    energy::ComponentId _ecCompute = energy::kInvalidComponent;
    // Counters, bound into ctx.stats under "<name>.<stat>".
    std::uint64_t _intOps = 0;
    std::uint64_t _fpOps = 0;
    std::uint64_t _loads = 0;
    std::uint64_t _stores = 0;
};

} // namespace fusion::accel

#endif // FUSION_ACCEL_REPLAY_CORE_HH
