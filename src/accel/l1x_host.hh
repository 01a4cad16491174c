/**
 * @file
 * The host side of the accelerator tile's shared L1X, common to both
 * tile protocols: ACC (L1xAcc) and the conventional directory MESI
 * alternative (L1xMesi).
 *
 * Whatever protocol runs between the L0Xs and the L1X, the L1X is an
 * M/E/I agent of the host LLC (Section 3.2):
 *  - the tag array is virtually indexed and PID tagged; the MSHR file
 *    is keyed by (vline, pid);
 *  - a miss translates on the AX-TLB (Figure 3, top), evicts any
 *    synonym the AX-RMAP reports (Appendix), fetches the line
 *    exclusively (GetX) and installs it in E;
 *  - a host-forwarded demand finds its line through the AX-RMAP.
 *
 * The protocols differ only in which resident lines may give up their
 * frame to a fill (the victim predicate): an ACC line once its leases
 * have expired, a MESI line once no L0X caches it. A set with no such
 * way retries every 16 cycles.
 */

#ifndef FUSION_ACCEL_L1X_HOST_HH
#define FUSION_ACCEL_L1X_HOST_HH

#include <functional>
#include <string>

#include "coherence/protocol.hh"
#include "energy/sram_model.hh"
#include "host/llc.hh"
#include "interconnect/link.hh"
#include "mem/cache_array.hh"
#include "mem/mshr.hh"
#include "sim/sim_context.hh"
#include "vm/ax_rmap.hh"
#include "vm/ax_tlb.hh"

namespace fusion::accel
{

/** L1X configuration (Table 2: 64 KB or 256 KB, 16 banks, 8-way). */
struct L1xParams
{
    std::string name = "l1x";
    std::uint64_t capacityBytes = 64 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t banks = 16;
    std::uint32_t ringNode = 4; ///< tile attachment on the LLC ring
};

/** Tag array, MSHRs and host-LLC miss path of a tile's L1X. */
class L1xHost
{
  public:
    /** May this resident line give up its frame to a fill? */
    using Evictable = std::function<bool(const mem::CacheLine &)>;

    /**
     * @param agent the owning L1X, registered with the LLC
     * @param kind SRAM flavour (ACC tags carry a timestamp)
     * @param fill_latency miss-to-install histogram (null: none)
     */
    L1xHost(SimContext &ctx, const L1xParams &p, energy::SramKind kind,
            coherence::CoherentAgent &agent, host::Llc &llc,
            interconnect::Link *llc_link, vm::AxTlb &tlb,
            vm::AxRmap &rmap, Evictable evictable,
            stats::Histogram *fill_latency);
    // Registered gauges, checkers and events hold this address.
    L1xHost(const L1xHost &) = delete;
    L1xHost &operator=(const L1xHost &) = delete;

    /** Book one L1X array access (energy and reads/writes). */
    void bookAccess(bool is_write);

    /**
     * Miss on (@p vline, @p pid): queue @p replay on the line's MSHR.
     * The primary miss fetches the line from the host and installs
     * it; every queued replay then runs.
     * @return true for the primary miss.
     */
    bool fetch(Addr vline, Pid pid, mem::MshrFile::Target replay);

    /**
     * Host-forwarded demand for physical line @p pa (counted as
     * fwd_recv): the resident L1X line, or null when the tile does
     * not hold it.
     */
    mem::CacheLine *resolve(Addr pa);

    /** Give up a resident line (AX-RMAP entry and frame). */
    void drop(mem::CacheLine &line);

    mem::CacheArray &tags() { return _tags; }
    const mem::CacheArray &tags() const { return _tags; }
    /** In-flight misses (distinct lines). */
    std::size_t mshrs() const { return _mshrs.size(); }
    std::uint64_t frameRetries() const { return _frameRetries; }
    Cycles latency() const { return _fig.latency; }
    /** LLC agent id assigned at registration (fwdsToAgent key). */
    int agentId() const { return _agentId; }

  private:
    /** Install a fetched line, evicting a victim the predicate
     *  allows, or retry in 16 cycles when none qualifies. */
    void install(Addr vline, Pid pid, Addr pline, Tick t0);
    /** Drop a line and hand it back to the LLC (PUTX or notice). */
    void evict(mem::CacheLine &line);

    SimContext &_ctx;
    host::Llc &_llc;
    vm::AxTlb &_tlb;
    vm::AxRmap &_rmap;
    mem::CacheArray _tags;
    mem::MshrFile _mshrs; ///< keyed by (vline, pid)
    energy::SramFigures _fig;
    energy::ComponentId _ecL1x = energy::kInvalidComponent;
    int _agentId = -1;
    Evictable _evictable;
    stats::Histogram *_fillLatency;
    // Counters, bound into ctx.stats under "<name>.<stat>".
    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;
    std::uint64_t _synonymEvictions = 0;
    std::uint64_t _frameRetries = 0;
    std::uint64_t _evictions = 0;
    std::uint64_t _fwdRecv = 0;
};

} // namespace fusion::accel

#endif // FUSION_ACCEL_L1X_HOST_HH
