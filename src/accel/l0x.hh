/**
 * @file
 * Per-accelerator private L0X cache: the ACC protocol's client side
 * (Section 3.2).
 *
 * The L0X "caches data and acts like a scratchpad": 4-8 KB, one
 * cycle, word-granularity accesses. Lines carry the LTIME lease
 * timestamp — a line is valid only while its lease is unexpired, so
 * the L0X *self-invalidates* and never receives coherence traffic.
 * Stores are write-cached (the paper's key write optimization): a
 * store acquires a write epoch from the L1X, dirties the line
 * locally, and a *self-downgrade* writes the line back when the
 * epoch expires. Downgrade checks are filtered by per-set and
 * per-cache writeback timestamps so no full sweep is ever needed.
 *
 * For FUSION-Dx the L0X additionally implements write forwarding:
 * dirty lines whose next reader is a different accelerator are
 * pushed straight into the consumer's L0X over the cheap 0.1 pJ/B
 * L0X-L0X link, with a 1-flit lease-transfer notice to the L1X.
 *
 * A write-through mode backs the Table 4 ablation.
 */

#ifndef FUSION_ACCEL_L0X_HH
#define FUSION_ACCEL_L0X_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "accel/l1x.hh"
#include "energy/sram_model.hh"
#include "accel/mem_port.hh"
#include "interconnect/link.hh"
#include "mem/cache_array.hh"
#include "mem/mshr.hh"
#include "obs/span_tracer.hh"
#include "sim/sim_context.hh"

namespace fusion::accel
{

/** L0X configuration (Table 2: 4 or 8 KB). */
struct L0xParams
{
    std::string name = "axc0.l0x";
    std::uint64_t capacityBytes = 4 * 1024;
    std::uint32_t assoc = 4;
    mem::ReplPolicy repl = mem::ReplPolicy::Lru;
    bool writeThrough = false; ///< Table 4 ablation
    AccelId accel = 0;
};

/** The private L0X cache controller. */
class L0x : public MemPort
{
  public:
    /**
     * @param tile_link the shared L0X<->L1X link (requests and
     *        writebacks booked here)
     * @param fwd_link the direct L0X<->L0X forwarding link
     *        (FUSION-Dx); may be nullptr when Dx is disabled
     */
    L0x(SimContext &ctx, const L0xParams &p, L1xAcc &l1x,
        interconnect::Link *tile_link,
        interconnect::Link *fwd_link);

    /** Set the active function's lease length and process. */
    void setFunction(Cycles lease_len, Pid pid);

    /**
     * Install the FUSION-Dx forwarding plan for the current
     * invocation: line -> consumer L0X. Cleared by passing nullptr.
     */
    void setForwardTargets(
        const std::unordered_map<Addr, L0x *> *targets);

    /**
     * FUSION-Dx: invocation finished — self-evict and forward every
     * dirty line with a planned consumer (Figure 5, right).
     */
    void forwardPlannedLines();

    /**
     * True if a pushed line could be installed without displacing
     * live data (an invalid way, or a clean way whose lease has
     * expired). Producers probe this before forwarding; pushes the
     * consumer cannot hold fall back to a normal L1X writeback.
     */
    bool canAcceptForward(Addr vline) const;

    /**
     * Receive a pushed line from a producer L0X (FUSION-Dx).
     * @p dirty moves write responsibility with the line.
     */
    void receiveForward(Addr vline, Pid pid, Tick lease_end,
                        bool dirty);

    /** Write back every dirty line now (teardown barrier). */
    void drainDirty();

    // MemPort interface (called by the accelerator core).
    void access(Addr va, std::uint32_t size, bool is_write,
                PortDone done) override;

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _loadMisses + _storeMisses; }
    std::uint64_t writebacksSent() const { return _writebacks; }
    /** Lines installed: miss fills plus pushed-in forwards. */
    std::uint64_t fills() const { return _fills + _forwardFills; }
    std::uint64_t forwardsOut() const { return _forwardsOut; }
    Cycles latency() const { return _fig.latency; }

    /** Iterate valid lines (guard invariant checkers). */
    void
    forEachValidLine(
        const std::function<void(const mem::CacheLine &)> &fn) const
    {
        _tags.forEachValid(fn);
    }

  private:
    void lookup(Addr vline, bool is_write, Tick start, PortDone done,
                bool is_retry = false);
    void requestMiss(Addr vline, bool is_write, bool need_data);
    void onGrant(Addr vline, bool is_write, Tick lease_end);
    mem::CacheLine *allocateFrame(Addr vline);
    /** Register a write epoch in the downgrade filter timestamps. */
    void noteWriteEpoch(Addr vline, Tick epoch_end);
    void scheduleDowngrade(Tick when);
    void downgradeSweep();
    /** Write the line back — or, when @p allow_forward and a
     *  consumer is planned, push it to that consumer's L0X. */
    void emitDirtyLine(mem::CacheLine &line,
                       bool allow_forward = false);
    void bookAccess(bool is_write, bool line_granular);

    SimContext &_ctx;
    L0xParams _p;
    L1xAcc &_l1x;
    interconnect::Link *_tileLink;
    interconnect::Link *_fwdLink;
    mem::CacheArray _tags;
    mem::MshrFile _mshrs;
    energy::SramFigures _fig;
    energy::ComponentId _ecL0x = energy::kInvalidComponent;
    Cycles _leaseLen = 500;
    Pid _pid = 1;
    const std::unordered_map<Addr, L0x *> *_fwdTargets = nullptr;

    /// Downgrade filters: earliest write-epoch end per set, and the
    /// minimum over all sets (Section 3.2, self-downgrade).
    std::vector<Tick> _setWbTime;
    Tick _nextDowngrade = kTickNever;

    // Counters, bound into ctx.stats under "<name>.<stat>".
    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _loadMisses = 0;
    std::uint64_t _storeMisses = 0;
    std::uint64_t _fills = 0;        ///< installed by a miss grant
    std::uint64_t _forwardFills = 0; ///< installed by a pushed forward
    std::uint64_t _evictions = 0;
    std::uint64_t _downgradeSweeps = 0;
    std::uint64_t _writebacks = 0;
    std::uint64_t _forwardsOut = 0;
    std::uint64_t _forwardsIn = 0;
    std::uint64_t _forwardsRejected = 0;
    stats::Histogram *_stAccessLatency;
    stats::Histogram *_stHitLatency;
    stats::Histogram *_stMissLatency;
    /// Self-downgrade lag: writeback tick minus write-epoch expiry.
    stats::Histogram *_stWbDelay;
    /// Telemetry span tracer (null when tracing is off).
    obs::SpanTracer *_tracer = nullptr;
    std::uint32_t _track = 0;
};

} // namespace fusion::accel

#endif // FUSION_ACCEL_L0X_HH
