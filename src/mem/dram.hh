/**
 * @file
 * Open-page DRAM model (Table 2: 4 channels, open page, 32-entry
 * command queue, 200-cycle latency, 16 GB).
 *
 * Channels are line-interleaved. Each channel services one command
 * at a time from a bounded queue; an access to the currently open
 * row of a channel completes faster than one that must activate a
 * new row.
 */

#ifndef FUSION_MEM_DRAM_HH
#define FUSION_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "sim/sim_context.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace fusion::mem
{

/** Configuration for the DRAM model. */
struct DramParams
{
    std::uint32_t channels = 4;
    std::uint32_t cmdQueueDepth = 32;
    Cycles rowHitLatency = 120;  ///< open-page hit
    Cycles rowMissLatency = 200; ///< activate + access (Table 2)
    Cycles burstCycles = 4;      ///< channel occupancy per transfer
    std::uint32_t rowBytes = 4096;
    double accessPj = 1500.0;    ///< energy per 64B access
};

/** A queued DRAM command's completion callback. */
using DramCallback = sim::SmallFn<void()>;

/** Line-interleaved multi-channel open-page DRAM. */
class Dram
{
  public:
    Dram(SimContext &ctx, const DramParams &p);

    /**
     * Issue a line read/write. @p done fires when the data burst
     * completes. Commands beyond the queue depth stall admission
     * (modelled by queueing delay).
     */
    void access(Addr pa, bool is_write, DramCallback done);

    /** Total accesses serviced. */
    std::uint64_t accesses() const { return _accesses; }
    /** Accesses that hit the open row. */
    std::uint64_t rowHits() const { return _rowHits; }

  private:
    struct Command
    {
        Addr pa = 0;
        DramCallback done;
    };

    struct Channel
    {
        /// FIFO of waiting commands: a ring whose capacity is a power
        /// of two and doubles only when full, so a steady stream of
        /// commands allocates nothing, and a channel that never
        /// idles grows it no further than its deepest backlog.
        std::vector<Command> ring;
        std::size_t head = 0; ///< oldest command
        std::size_t queued = 0;
        bool busy = false;
        Addr openRow = ~0ull;

        void push(Addr pa, DramCallback done);
        Command pop();
    };

    void serviceNext(std::uint32_t ch);

    SimContext &_ctx;
    DramParams _p;
    energy::ComponentId _ecDram = energy::kInvalidComponent;
    std::vector<Channel> _channels;
    // Counters, bound into ctx.stats under "dram.<stat>".
    std::uint64_t _queued = 0;
    std::uint64_t _accesses = 0;
    std::uint64_t _rowHits = 0;
};

} // namespace fusion::mem

#endif // FUSION_MEM_DRAM_HH
