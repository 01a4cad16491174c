/**
 * @file
 * The host multicore's shared L2 (LLC): an 8-tile NUCA array on a
 * ring with an embedded full-map 3-hop directory MESI protocol
 * (Table 2), backed by the DRAM model.
 *
 * All coherence in the host address space is ordered here. The LLC
 * is inclusive of every agent's cached lines; the directory has
 * perfect sharer information because agents send explicit eviction
 * notices (the accelerator tile never silently drops lines since it
 * only holds M/E states, Section 3.2).
 *
 * The LLC also services the oracle DMA engine of the SCRATCH
 * baseline: DMA reads snoop the most-up-to-date data (ARM ACP /
 * IBM PowerBus style coherent DMA, Section 2.1) and DMA writes
 * invalidate stale copies before updating the LLC.
 */

#ifndef FUSION_HOST_LLC_HH
#define FUSION_HOST_LLC_HH

#include <cstdint>
#include <deque>

#include "coherence/directory.hh"
#include "coherence/protocol.hh"
#include "interconnect/link.hh"
#include "interconnect/ring.hh"
#include "mem/cache_array.hh"
#include "mem/dram.hh"
#include "obs/span_tracer.hh"
#include "sim/sim_context.hh"

namespace fusion::host
{

/** LLC configuration (defaults = Table 2). */
struct LlcParams
{
    std::uint64_t capacityBytes = 4ull << 20;
    std::uint32_t assoc = 16;
    std::uint32_t nucaBanks = 8;
    Cycles bankLatency = 12; ///< bank+directory access
    Cycles hopLatency = 2;   ///< ring, per hop
};

/** What the directory granted for a request. */
struct LlcResponse
{
    /** Line granted in E/M (sole copy) rather than S. */
    bool exclusive = false;
};

/** Completion callback for LLC MESI transactions. */
using LlcDone = sim::SmallFn<void(const LlcResponse &)>;

/** Completion callback for DMA transfers. */
using DmaDone = sim::SmallFn<void()>;

/** NUCA LLC with embedded MESI directory. */
class Llc
{
  public:
    Llc(SimContext &ctx, const LlcParams &p, mem::Dram &dram);

    /**
     * Register a coherent agent (host L1, accelerator tile L1X).
     * @param agent forwarded-request sink
     * @param link the agent's physical link to the LLC
     * @param ring_node the agent's attachment point on the ring
     * @return agent id used in subsequent calls
     */
    int registerAgent(coherence::CoherentAgent *agent,
                      interconnect::Link *link,
                      std::uint32_t ring_node);

    /**
     * MESI request from an agent. @p done fires when the data (or
     * upgrade ack) arrives back at the agent.
     */
    void request(int agent, Addr pa, coherence::CoherenceReq kind,
                 LlcDone done);

    /**
     * Dirty writeback (PUTX) from an agent that owned the line.
     * Fire-and-forget: directory state updates after the data
     * message arrives.
     */
    void writebackData(int agent, Addr pa);

    /** Clean eviction notice (PutS/PutE). */
    void evictNotice(int agent, Addr pa);

    /**
     * Coherent DMA read: fetches the most-up-to-date line and ships
     * it over @p dma_link (LLC -> scratchpad). The DMA engine sits
     * at the LLC, so there is no request-message overhead (oracle
     * DMA, Section 4).
     */
    void dmaRead(Addr pa, interconnect::Link *dma_link, DmaDone done);

    /**
     * Coherent DMA write: ships the line over @p dma_link
     * (scratchpad -> LLC), invalidates stale copies and updates the
     * LLC.
     */
    void dmaWrite(Addr pa, interconnect::Link *dma_link, DmaDone done);

    /** Total directory-forwarded demands sent to @p agent. */
    std::uint64_t fwdsToAgent(int agent) const;

    /** Accessor used by tests. */
    mem::CacheArray &tags() { return _tags; }

    /** True if @p agent currently owns @p pa per the directory. */
    bool isOwner(int agent, Addr pa) const;
    /** True if @p agent is a sharer of @p pa per the directory. */
    bool isSharer(int agent, Addr pa) const;
    /**
     * True while a directory transaction for @p pa is in flight.
     * Invariant checkers skip busy entries: their dir state is
     * mid-update by design.
     */
    bool dirBusy(Addr pa) const;

  private:
    struct AgentInfo
    {
        coherence::CoherentAgent *agent = nullptr;
        interconnect::Link *link = nullptr;
        std::uint32_t node = 0;
        std::uint64_t fwds = 0; ///< bound under "llc.fwds" (summed)
    };

    /** Path latency agent <-> home bank (link + ring). */
    Cycles pathLatency(int agent, Addr pa) const;

    /** Book one bank access (energy + stats). */
    void bankAccess(bool is_write);

    void arrive(int agent, Addr pa, coherence::CoherenceReq kind,
                LlcDone done);
    void lookup(int agent, Addr pa, coherence::CoherenceReq kind,
                LlcDone done);
    /** Ensure @p pa has an LLC frame; may recall a victim + touch
     *  DRAM. Continues with @p then. */
    void ensurePresent(Addr pa, sim::SmallFn<void()> then);
    void dirAction(int agent, Addr pa, coherence::CoherenceReq kind,
                   LlcDone done);
    /** The directory's probe transport: LLC -> @p agent and back. */
    void probe(Addr pa, int agent, coherence::FwdKind kind);
    void respond(int agent, Addr pa, coherence::Directory::Grant g,
                 LlcDone done);

    void dmaArrive(Addr pa, bool is_write,
                   interconnect::Link *dma_link, DmaDone done);

    SimContext &_ctx;
    LlcParams _p;
    mem::Dram &_dram;
    interconnect::Ring _ring;
    mem::CacheArray _tags;
    double _bankReadPj = 0.0;
    double _bankWritePj = 0.0;
    energy::ComponentId _ecLlc = energy::kInvalidComponent;
    /// A deque, so each agent's fwds counter keeps the address it
    /// was bound into ctx.stats at while later agents register.
    std::deque<AgentInfo> _agents;
    coherence::Directory _dir;
    interconnect::Link _dramLink;
    // Counters, bound into ctx.stats under "llc.<stat>".
    std::uint64_t _bankReads = 0;
    std::uint64_t _bankWrites = 0;
    std::uint64_t _requests = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _deferred = 0;
    std::uint64_t _victimRetries = 0;
    std::uint64_t _recalls = 0;
    std::uint64_t _writebacks = 0;
    std::uint64_t _evictNotices = 0;
    std::uint64_t _dmaReads = 0;
    std::uint64_t _dmaWrites = 0;
    /// Telemetry span tracer (null when tracing is off).
    obs::SpanTracer *_tracer = nullptr;
    std::uint32_t _track = 0;
};

} // namespace fusion::host

#endif // FUSION_HOST_LLC_HH
