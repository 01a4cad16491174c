/**
 * @file
 * The accelerator tile's shared L1X cache running the ACC
 * (ACcelerator Coherence) protocol — the ordering point of the tile
 * (Section 3.2).
 *
 * ACC is a timestamp-based self-invalidation protocol:
 *  - L0Xs request *leases*: a read epoch or a write epoch ending at
 *    now + LT (the per-function lease time, Table 3).
 *  - The L1X records the latest lease granted for a line as its
 *    GTIME; by GTIME every L0X copy has self-invalidated, so the
 *    L1X can answer host MESI demands without ever probing an L0X.
 *  - A write epoch implicitly locks the line at the L1X; subsequent
 *    readers/writers stall *at the L1X* until the epoch expires and
 *    the dirty writeback arrives. Read epochs coexist.
 *  - Strict 2-hop within the tile: request -> grant, no
 *    invalidations, no acks.
 *
 * Host integration (MEI) is the L1xHost every tile L1X shares: lines
 * are fetched exclusively (GetX), so the tile's MESI states collapse
 * to M/E/I and the host directory's sharer information for the tile
 * is exact. A forwarded host request is translated through the
 * AX-RMAP, evicts the line into a writeback buffer, and the PUTX
 * response is *stalled until GTIME expires* (Figure 4, right). A
 * fill may only take the frame of a line whose leases have expired.
 */

#ifndef FUSION_ACCEL_L1X_HH
#define FUSION_ACCEL_L1X_HH

#include <string>
#include <vector>

#include "accel/l1x_host.hh"
#include "mem/bank_scheduler.hh"
#include "obs/span_tracer.hh"

namespace fusion::accel
{

/** Result of a lease request. */
struct LeaseGrant
{
    Tick leaseEnd = 0; ///< LTIME handed to the L0X
};

/** The shared L1X with the ACC controller. */
class L1xAcc : public coherence::CoherentAgent
{
  public:
    using LeaseDone = sim::SmallFn<void(const LeaseGrant &)>;

    /**
     * @param tile_link the L0X<->L1X link (response direction booked
     *        here; requests are booked by the L0X side)
     * @param llc_link the tile's link to the host LLC
     */
    L1xAcc(SimContext &ctx, const L1xParams &p, host::Llc &llc,
           interconnect::Link *tile_link,
           interconnect::Link *llc_link, vm::AxTlb &tlb,
           vm::AxRmap &rmap);

    /**
     * Lease request from an L0X (arrives after the tile-link
     * latency, which the L0X models). A write lease locks the line.
     * @p done fires when the grant (with data) reaches the L0X.
     */
    void requestLease(AccelId who, Addr vline, Pid pid,
                      Cycles lease_len, bool is_write,
                      bool need_data, LeaseDone done);

    /**
     * Dirty-line writeback from an L0X self-downgrade. Unlocks the
     * line and wakes stalled requests. (The data message itself is
     * booked by the L0X.)
     */
    void writeback(AccelId who, Addr vline, Pid pid);

    /**
     * FUSION-Dx lease transfer: the producer forwarded the dirty
     * line directly to a consumer L0X whose implicit write epoch
     * ends at @p new_end; the L1X only extends the lease (it "is
     * not concerned with the owner of the lease", Section 3.2).
     */
    void leaseTransfer(Addr vline, Pid pid, Tick new_end,
                       bool dirty);

    /** Write-through store from an L0X (Table 4 ablation). */
    void writeThroughStore(AccelId who, Addr vline, Pid pid);

    // CoherentAgent interface (host-forwarded demands).
    void handleFwd(Addr pa, coherence::FwdKind kind,
                   FwdDone done) override;
    const std::string &name() const override { return _name; }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    /** LLC agent id assigned at registration (fwdsToAgent key). */
    int agentId() const { return _host.agentId(); }

    // Guard hooks (tile-level invariant checkers).
    /** Valid line lookup without side effects. */
    const mem::CacheLine *
    findLine(Addr vline, Pid pid) const
    {
        return _host.tags().find(lineAlign(vline), pid);
    }
    /** Is the line parked in the host-demand writeback buffer? */
    bool hasWbBufferedLine(Addr vline, Pid pid) const;

  private:
    struct WbBufEntry
    {
        std::uint64_t id = 0;
        Addr pline = 0;
        Addr vline = 0;
        Pid pid = 0;
        bool dirty = false;
        bool awaitingL0xWb = false;
        Tick readyAt = 0;
        Tick t0 = 0; ///< demand arrival (fwd_latency histogram)
        FwdDone done;
    };

    /** Main lease state machine, post bank-access latency. */
    void processLease(AccelId who, Addr vline, Pid pid,
                      Cycles lease_len, bool is_write,
                      bool need_data, LeaseDone done,
                      bool is_retry = false);
    void grant(mem::CacheLine &line, Cycles lease_len, bool is_write,
               bool need_data, LeaseDone done);
    void wakeStalled(Addr vline, Pid pid);
    void tryRespondWbBuf(std::uint64_t id);

    SimContext &_ctx;
    std::string _name;
    interconnect::Link *_tileLink;
    L1xHost _host;
    mem::BankScheduler _banks;
    /** Write-epoch stall queues — the same pooled (vline, pid)
     *  structure as the MSHR file; wakeStalled() drains one key. */
    mem::MshrFile _stalled;
    /// Host demands parked in the tile, in arrival order; erase
    /// keeps that order, since writeback() takes the first
    /// (vline, pid) match.
    std::vector<WbBufEntry> _wbBuffer;
    std::uint64_t _nextWbId = 1;
    // Counters, bound into ctx.stats under "<name>.<stat>".
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _bankConflicts = 0;
    std::uint64_t _stallsOnWriteEpoch = 0;
    std::uint64_t _writeEpochs = 0;
    std::uint64_t _readLeases = 0;
    std::uint64_t _l0xWritebacks = 0;
    std::uint64_t _leaseTransfers = 0;
    std::uint64_t _writeThroughStores = 0;
    std::uint64_t _fwdStalledOnGtime = 0;
    stats::Histogram *_stFwdLatency;
    /// Telemetry span tracer (null when tracing is off).
    obs::SpanTracer *_tracer = nullptr;
    std::uint32_t _track = 0;
};

} // namespace fusion::accel

#endif // FUSION_ACCEL_L1X_HH
