/**
 * @file
 * Configuration knobs for the simulation hardening layer: watchdog
 * budgets, periodic invariant checking, and the test-only fault
 * injection schedule. All knobs default to off so a default-configured
 * run is byte-identical to one built without the guard subsystem.
 */

#ifndef FUSION_SIM_GUARD_GUARD_CONFIG_HH
#define FUSION_SIM_GUARD_GUARD_CONFIG_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hh"

namespace fusion::guard
{

/**
 * Test-only fault kinds, injected at well-defined protocol points to
 * prove the watchdog and invariant checkers actually fire.
 */
enum class FaultKind : std::uint8_t
{
    None,          ///< no injection (production default)
    LeakMshr,      ///< L0X books an MSHR but never sends the request
    DropWriteback, ///< L0X cleans a dirty line without writing back
    DelayGrant,    ///< L1X delays one lease grant by ArmedFault::delay
    CorruptLease,  ///< L0X inflates a granted lease past its bound
    DropFlit,      ///< a link books a message but never delivers it
    DupFlit,       ///< a link retransmits one message's flits
    ReorderFlit,   ///< a link delays one delivery past later traffic
    TruncateDma,   ///< a DMA op silently skips its remaining lines
    StallDma,      ///< a DMA line completion stalls by delay cycles
    CorruptDir,    ///< LLC directory forgets an owner/sharer bit
    StaleHostL1,   ///< host L1 ignores an invalidation, keeps stale data
};

/** Number of FaultKind values (for bitmask / table sizing). */
inline constexpr std::size_t kFaultKindCount = 12;

/** Canonical CLI name for a fault kind ("leak-mshr", ...). */
const char *faultKindName(FaultKind kind);

/** Parse a CLI fault-kind name; false when unrecognized. */
bool parseFaultKind(std::string_view name, FaultKind &out);

/**
 * True for kinds that only perturb *timing* (delays / reordering on
 * architecturally legal paths): a run where exclusively such faults
 * fired may legitimately produce different cycle counts and output
 * hashes without any safety property being violated. All other kinds
 * corrupt state or lose work and must be detected.
 */
bool faultPerturbsTimingOnly(FaultKind kind);

/**
 * One armed fault inside a FaultSchedule: which kind, when it
 * triggers, and an optional per-opportunity firing probability. Once
 * the trigger count is reached, each further opportunity fires it
 * with probability @p probability (drawn from the schedule's
 * SplitMix64 stream) until it has fired once; p = 1.0 fires on the
 * (triggerAfter+1)-th opportunity and never draws from the stream.
 */
struct ArmedFault
{
    FaultKind kind = FaultKind::None;
    /** Eligible from the (triggerAfter+1)-th opportunity onwards. */
    std::uint64_t triggerAfter = 0;
    /** Extra cycles for delay-style kinds (grant/reorder/stall) and
     *  lease inflation for CorruptLease. */
    Cycles delay = 0;
    /** Per-opportunity firing probability once eligible. */
    double probability = 1.0;
};

/** Render one armed fault as a --fault spec (kind[:after[:delay]]). */
std::string faultSpec(const ArmedFault &fault);

/**
 * Parse a --fault spec "KIND[:after[:delay[:prob]]]".
 * @return false (out untouched) when the spec is malformed.
 */
bool parseFaultSpec(std::string_view spec, ArmedFault &out);

/**
 * A seeded multi-fault schedule. Each armed fault keeps independent
 * trigger/fired state inside the GuardRegistry; probability draws
 * come from one SplitMix64 stream seeded here, so a (schedule, seed)
 * pair replays identically across runs and worker threads.
 */
struct FaultSchedule
{
    std::vector<ArmedFault> faults;
    /** Seed for the probability stream (sim/rng.hh SplitMix64). */
    std::uint64_t seed = 0;

    bool empty() const { return faults.empty(); }

    /** Fluent helper: arm one more fault. */
    FaultSchedule &
    arm(FaultKind kind, std::uint64_t trigger_after = 0,
        Cycles delay = 0, double probability = 1.0)
    {
        faults.push_back({kind, trigger_after, delay, probability});
        return *this;
    }
};

/** All hardening knobs carried inside SystemConfig. */
struct GuardConfig
{
    /** Trip when simulated time would exceed this tick (0 = off). */
    Tick maxCycles = 0;
    /** Trip when wall-clock time exceeds this many ms (0 = off). */
    std::uint64_t maxWallMs = 0;
    /**
     * Trip when this many ticks elapse with outstanding transactions
     * (MSHRs, DMA transfers) but no retirements (0 = off).
     */
    Tick noProgressTicks = 0;
    /** Run registered invariant checkers every K cycles (0 = off). */
    Tick invariantPeriod = 0;
    /** Run invariant checkers once after the event queue drains. */
    bool invariantsAtEnd = false;
    /** Test-only multi-fault injection schedule. */
    FaultSchedule schedule;

    /** True when any fault is armed. */
    bool faultArmed() const { return !schedule.empty(); }

    /** True when any liveness, safety or fault hook is enabled. */
    bool
    anyEnabled() const
    {
        return maxCycles != 0 || maxWallMs != 0 ||
               noProgressTicks != 0 || invariantPeriod != 0 ||
               invariantsAtEnd || faultArmed();
    }
};

} // namespace fusion::guard

#endif // FUSION_SIM_GUARD_GUARD_CONFIG_HH
