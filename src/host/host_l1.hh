/**
 * @file
 * The host core's private L1 data cache: a full MESI participant of
 * the LLC directory protocol (Table 2: 64 KB, 4-way, 3 cycles).
 *
 * In the SHARED configuration the accelerator tile's shared L1X is
 * modelled by this same controller class (it "appears as just
 * another L1 agent to the coherence protocol", Section 2.1), so the
 * construction parameters carry the geometry, link and energy
 * component explicitly.
 */

#ifndef FUSION_HOST_HOST_L1_HH
#define FUSION_HOST_HOST_L1_HH

#include <string>

#include "energy/sram_model.hh"
#include "coherence/protocol.hh"
#include "host/llc.hh"
#include "mem/cache_array.hh"
#include "mem/bank_scheduler.hh"
#include "mem/mshr.hh"
#include "sim/completion.hh"
#include "sim/sim_context.hh"

namespace fusion::host
{

/** Construction parameters for a MESI L1 controller. */
struct HostL1Params
{
    std::string name = "host.l1";
    std::uint64_t capacityBytes = 64 * 1024;
    std::uint32_t assoc = 4;
    std::uint32_t banks = 1;
    std::string energyComponent; ///< ledger name for array accesses
    std::uint32_t ringNode = 0;  ///< attachment point on the LLC ring
    /// Energy scale for requester-side word accesses (the SHARED
    /// L1X is accessed at word granularity by the accelerators;
    /// fills and writebacks stay line-granular).
    double wordAccessScale = 1.0;
};

/**
 * A write-back, write-allocate MESI L1 cache controller.
 */
class HostL1 : public coherence::CoherentAgent
{
  public:
    /** Completion of one access: the same 24-byte value as an
     *  accelerator port's (sim/completion.hh), so the bank-latency
     *  event and the MSHR target that carry it stay inline. */
    using AccessDone = sim::Completion;

    HostL1(SimContext &ctx, const HostL1Params &p, Llc &llc,
           interconnect::Link *llc_link);

    /**
     * Perform one load/store of at most one cache line.
     * @p done fires when the access commits (hit latency included).
     */
    void access(Addr pa, bool is_write, AccessDone done);

    /** Flush every dirty line to the LLC and invalidate (barrier). */
    void flushAll();

    /** Access latency of the array. */
    Cycles latency() const { return _fig.latency; }

    // CoherentAgent interface.
    void handleFwd(Addr pa, coherence::FwdKind kind,
                   FwdDone done) override;
    const std::string &name() const override { return _name; }

    std::uint64_t hits() const { return _hits; }
    /** Misses, counting store upgrades of Shared lines. */
    std::uint64_t misses() const { return _misses + _upgrades; }
    /** LLC agent id assigned at registration (fwdsToAgent key). */
    int agentId() const { return _agentId; }

  private:
    /** State/tag check after the array access latency. @p is_retry
     *  marks MSHR-fill replays (no hit/miss accounting). */
    void lookup(Addr line_addr, bool is_write, AccessDone done,
                bool is_retry = false);
    /** Handle the LLC response for a miss. */
    void fillDone(Addr line_addr, bool is_write, bool exclusive);
    /** Pick + clean a victim way, then install the line. */
    mem::CacheLine *allocateFrame(Addr line_addr);
    void bookAccess(bool is_write, double scale = 1.0);

    SimContext &_ctx;
    std::string _name;
    Llc &_llc;
    mem::CacheArray _tags;
    mem::BankScheduler _banks;
    mem::MshrFile _mshrs;
    energy::SramFigures _fig;
    energy::ComponentId _energyComponent =
        energy::kInvalidComponent;
    double _wordAccessScale = 1.0;
    int _agentId = -1;
    // Counters, bound into ctx.stats under "<name>.<stat>".
    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _upgrades = 0;
    std::uint64_t _bankConflicts = 0;
    std::uint64_t _evictions = 0;
    std::uint64_t _fwdRecv = 0;
    stats::Histogram *_stMissLatency;
};

} // namespace fusion::host

#endif // FUSION_HOST_HOST_L1_HH
