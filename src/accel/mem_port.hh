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
};

} // namespace fusion::accel

#endif // FUSION_ACCEL_MEM_PORT_HH
