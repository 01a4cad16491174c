/**
 * @file
 * The conventional alternative to ACC: a directory MESI protocol
 * *inside* the accelerator tile.
 *
 * The paper argues (Sections 1, 3.2, Lesson "Need to eliminate
 * request messages") that a conventional invalidation protocol
 * between the L0Xs would spend energy on probes, invalidations and
 * acks that ACC's timestamps eliminate. This module implements that
 * alternative so the claim is measurable: private MESI L0Xs under a
 * full-map directory at the shared L1X. Everything else — the
 * host-side MEI integration (the same L1xHost as the ACC L1X),
 * AX-TLB/AX-RMAP, link energies, cache geometries — is identical to
 * the FUSION tile, so any difference between `SystemKind::Fusion`
 * and `SystemKind::FusionMesi` is the intra-tile protocol alone.
 *
 * Protocol summary (the host LLC's blocking directory,
 * coherence::Directory, over the L0Xs):
 *  - L0X load miss -> GetS: directory downgrades an M/E owner
 *    (probe + data) and grants S (or E when sole).
 *  - L0X store miss/upgrade -> GetX: directory invalidates every
 *    other copy (probe + ack per sharer) before granting M.
 *  - L0X evictions send PutX (dirty) or an eviction notice (clean),
 *    keeping the directory precise.
 *  - Host-forwarded demands recall tile copies with probes — unlike
 *    ACC, the L0Xs *are* probed, which is exactly the message/energy
 *    cost being measured.
 */

#ifndef FUSION_ACCEL_TILE_MESI_HH
#define FUSION_ACCEL_TILE_MESI_HH

#include <memory>
#include <vector>

#include "accel/l1x_host.hh"
#include "accel/mem_port.hh"
#include "coherence/directory.hh"
#include "mem/bank_scheduler.hh"
#include "obs/span_tracer.hh"
#include "vm/page_table.hh"

namespace fusion::accel
{

class L1xMesi;

/** A private MESI L0X cache (the conventional design point). */
class L0xMesi : public SplitPort
{
  public:
    L0xMesi(SimContext &ctx, std::string name, std::uint64_t bytes,
            std::uint32_t assoc, AccelId id, L1xMesi &l1x,
            interconnect::Link *tile_link);

    void setPid(Pid pid) { _pid = pid; }

    // MemPort.
    /** The lookup, one array access after the issue. */
    void hop(Addr va, bool is_write, PortDone done) override;

    /** Directory probe from the L1X, kind as in MESI; @p done reports
     *  dirty data and whether a copy stays (S). */
    void handleTileFwd(Addr vline, coherence::FwdKind kind,
                       coherence::CoherentAgent::FwdDone done);

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _loadMisses + _storeMisses; }
    std::uint64_t probes() const { return _probes; }
    std::uint64_t fills() const { return _fills; }
    std::uint64_t writebacks() const { return _writebacks; }
    AccelId id() const { return _id; }
    const std::string &name() const { return _name; }
    const mem::CacheArray &tags() const { return _tags; }

  private:
    void begin(Addr va, bool is_write) override;
    Cycles hopLatency() const override { return _fig.latency; }
    void lookup(Addr vline, bool is_write, Tick start, PortDone done,
                bool is_retry);
    void fillDone(Addr vline, bool is_write, bool exclusive);
    void bookAccess(bool is_write, bool line_granular);

    SimContext &_ctx;
    std::string _name;
    AccelId _id;
    L1xMesi &_l1x;
    interconnect::Link *_tileLink;
    mem::CacheArray _tags;
    mem::MshrFile _mshrs;
    energy::SramFigures _fig;
    energy::ComponentId _ecL0x = energy::kInvalidComponent;
    Pid _pid = 1;
    // Counters, bound into ctx.stats under "<name>.<stat>".
    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _loadMisses = 0;
    std::uint64_t _storeMisses = 0;
    std::uint64_t _evictions = 0;
    std::uint64_t _fills = 0;
    std::uint64_t _probes = 0;
    std::uint64_t _writebacks = 0;
    stats::Histogram *_stAccessLatency;
    stats::Histogram *_stHitLatency;
    stats::Histogram *_stMissLatency;
    /// Telemetry span tracer (null when tracing is off).
    obs::SpanTracer *_tracer = nullptr;
    std::uint32_t _track = 0;
};

/**
 * The shared L1X with an embedded full-map directory over the
 * tile's L0Xs; an M/E/I agent of the host LLC (like ACC's L1X). A
 * fill may only take the frame of a line no L0X caches.
 */
class L1xMesi : public coherence::CoherentAgent
{
  public:
    using GrantDone = sim::SmallFn<void(bool exclusive)>;

    L1xMesi(SimContext &ctx, const L1xParams &p, host::Llc &llc,
            interconnect::Link *tile_link,
            interconnect::Link *llc_link, vm::AxTlb &tlb,
            vm::AxRmap &rmap);

    /** Register one L0X; returns its directory id. */
    int addL0x(L0xMesi *l0x);

    /** MESI request from an L0X (post tile-link latency). */
    void request(int l0x_id, Addr vline, Pid pid,
                 coherence::CoherenceReq kind, GrantDone done);

    /** Dirty writeback from an L0X. */
    void writeback(int l0x_id, Addr vline, Pid pid);
    /** Clean eviction notice from an L0X. */
    void evictNotice(int l0x_id, Addr vline, Pid pid);

    // Host-side CoherentAgent.
    void handleFwd(Addr pa, coherence::FwdKind kind,
                   FwdDone done) override;
    const std::string &name() const override { return _name; }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t probesSent() const { return _probesSent; }
    /** LLC agent id assigned at registration (fwdsToAgent key). */
    int agentId() const { return _host.agentId(); }

  private:
    using Key = coherence::Directory::Key;

    void arrive(int l0x_id, Addr vline, Pid pid,
                coherence::CoherenceReq kind, GrantDone done);
    void dirAction(int l0x_id, Addr vline, Pid pid,
                   coherence::CoherenceReq kind, GrantDone done);
    /** The directory's probe transport: L1X -> L0X @p id and back
     *  over the tile link. */
    void probe(Key k, int id, coherence::FwdKind kind);
    void respond(Key k, coherence::Directory::Grant g, GrantDone done);

    SimContext &_ctx;
    std::string _name;
    interconnect::Link *_tileLink;
    L1xHost _host;
    mem::BankScheduler _banks;
    std::vector<L0xMesi *> _l0xs;
    coherence::Directory _dir;
    // Counters, bound into ctx.stats under "<name>.<stat>".
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _deferred = 0;
    std::uint64_t _probesSent = 0;
    std::uint64_t _l0xWritebacks = 0;
    std::uint64_t _evictNotices = 0;
    /// Telemetry span tracer (null when tracing is off).
    obs::SpanTracer *_tracer = nullptr;
    std::uint32_t _track = 0;
};

/** Assembled MESI-protocol tile (the FUSION-MESI design point). */
class MesiTile
{
  public:
    MesiTile(SimContext &ctx, std::uint32_t num_accels,
             std::uint64_t l0x_bytes, std::uint32_t l0x_assoc,
             const L1xParams &l1x, host::Llc &llc,
             const vm::PageTable &pt);

    L0xMesi &l0x(AccelId a)
    {
        return *_l0xs[static_cast<std::size_t>(a)];
    }
    L1xMesi &l1x() { return *_l1x; }
    vm::AxTlb &tlb() { return *_tlb; }
    vm::AxRmap &rmap() { return *_rmap; }
    std::uint32_t numAccels() const
    {
        return static_cast<std::uint32_t>(_l0xs.size());
    }

  private:
    std::unique_ptr<interconnect::Link> _tileLink;
    std::unique_ptr<interconnect::Link> _llcLink;
    std::unique_ptr<vm::AxTlb> _tlb;
    std::unique_ptr<vm::AxRmap> _rmap;
    std::unique_ptr<L1xMesi> _l1x;
    std::vector<std::unique_ptr<L0xMesi>> _l0xs;
};

} // namespace fusion::accel

#endif // FUSION_ACCEL_TILE_MESI_HH
