/**
 * @file
 * The memory interface an accelerator core issues through. Each
 * system organization plugs a different implementation behind it:
 * a scratchpad frontend (SCRATCH), the shared L1X (SHARED), or a
 * private L0X (FUSION / FUSION-Dx).
 */

#ifndef FUSION_ACCEL_MEM_PORT_HH
#define FUSION_ACCEL_MEM_PORT_HH

#include "sim/completion.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace fusion::accel
{

/** Completion of one memory operation: a 24-byte trivially copyable
 *  value (sim/completion.hh), so every closure that carries it along
 *  the hit path fits SmallFn's inline buffer. */
using PortDone = sim::Completion;

/** Non-blocking memory port (Section 4: "aggressive non-blocking
 *  interface to memory"). */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /**
     * Issue one memory operation at virtual address @p va.
     * @p done fires when the operation commits.
     */
    virtual void access(Addr va, std::uint32_t size, bool is_write,
                        PortDone done) = 0;

    /**
     * access()'s issue-cycle half alone, for a port whose first hop
     * is exactly one cycle out. When it returns true the caller owes
     * the port a hop() one cycle later, in an event of its own (so
     * ReplayCore::pump runs it in the event of its next issue). A
     * port that does not split does nothing and returns false; the
     * caller then uses access().
     */
    virtual bool issue(Addr, bool) { return false; }

    /** The first hop of an access whose issue() returned true. */
    virtual void
    hop(Addr va, bool, PortDone)
    {
        fusion_panic("hop() on a port that does not split: va=", va);
    }
};

/**
 * A port whose access is an issue-cycle half, begin(), and a first
 * hop, hop(), a fixed hopLatency() cycles later. Each half has one
 * body: access() runs begin() and schedules hop(), and issue() runs
 * begin() alone when the hop is one cycle out. A longer first hop
 * (an 8 or 16 KiB L0X or scratchpad takes 2 cycles) never splits.
 */
class SplitPort : public MemPort
{
  public:
    void
    access(Addr va, std::uint32_t size, bool is_write,
           PortDone done) final
    {
        (void)size; // sub-line accesses never straddle lines in traces
        begin(va, is_write);
        _eq.scheduleIn(hopLatency(), [this, va, is_write, done] {
            hop(va, is_write, done);
        });
    }

    bool
    issue(Addr va, bool is_write) final
    {
        if (hopLatency() != 1)
            return false;
        begin(va, is_write);
        return true;
    }

    void hop(Addr va, bool is_write, PortDone done) override = 0;

  protected:
    explicit SplitPort(EventQueue &eq) : _eq(eq) {}

    /** The issue-cycle work: what the telemetry sampler and the
     *  access spans read per tick (energy, read/write counts, a
     *  span's begin) happens here, not in the hop. */
    virtual void begin(Addr va, bool is_write) = 0;

    /** Cycles from issue to the first hop. */
    virtual Cycles hopLatency() const = 0;

  private:
    EventQueue &_eq;
};

} // namespace fusion::accel

#endif // FUSION_ACCEL_MEM_PORT_HH
