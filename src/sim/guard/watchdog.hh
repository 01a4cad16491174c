/**
 * @file
 * Forward-progress watchdog that drives the System::run() event loop.
 *
 * The watchdog drains the queue one tick-bounded batch at a time
 * (EventQueue::runBatch) and checks between batches. Liveness checks
 * run at tick boundaries (when the next pending event is at a later
 * tick than the one just completed), so same-tick protocol
 * transients — an L0X->L0X forward and its lease-transfer notice,
 * for instance — are never observed half-applied. On trip, the
 * watchdog throws a SimErrorException carrying a structured
 * diagnostic (event-queue state plus every registered component
 * snapshot) instead of letting the simulation hang or abort.
 */

#ifndef FUSION_SIM_GUARD_WATCHDOG_HH
#define FUSION_SIM_GUARD_WATCHDOG_HH

#include <chrono>
#include <cstdint>

#include "sim/guard/registry.hh"
#include "sim/guard/sim_error.hh"
#include "sim/types.hh"

namespace fusion
{

class EventQueue;

namespace guard
{

/** One watchdog guards one System::run() loop. */
class Watchdog
{
  public:
    Watchdog(GuardRegistry &reg, EventQueue &eq);

    /**
     * Run the queue until it drains, checking before each batch:
     * periodic invariants and liveness at tick boundaries, the wall
     * clock once per 1,024 executed events. Throws
     * SimErrorException on any trip.
     */
    void drain();

    /**
     * Call after the queue drains. Throws a Deadlock SimError when
     * the program did not finish.
     */
    void onDrained(bool finished);

    /** End-of-sim invariant pass (when configured). */
    void atEnd();

  private:
    void check();
    [[noreturn]] void trip(ErrorCategory cat, std::string message);
    void checkInvariants(Tick now, bool at_end);

    GuardRegistry &_reg;
    EventQueue &_eq;
    bool _active; ///< any liveness/safety check enabled
    Tick _nextInvariantTick = 0;
    std::uint64_t _lastProgress = 0;
    Tick _lastProgressTick = 0;
    std::uint64_t _nextWallCheck; ///< executed() of the next clock read
    std::chrono::steady_clock::time_point _start;
};

} // namespace guard
} // namespace fusion

#endif // FUSION_SIM_GUARD_WATCHDOG_HH
