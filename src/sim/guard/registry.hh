/**
 * @file
 * Per-system guard registry. Components self-register two kinds of
 * hooks during construction:
 *
 *  - snapshots: "what is outstanding right now" providers the
 *    watchdog renders into a diagnostic dump when it trips;
 *  - invariants: safety predicates (single-writer, lease validity,
 *    MESI directory agreement, MSHR/credit conservation) run every
 *    K cycles and/or at end-of-sim.
 *
 * Registration order is construction order, which is deterministic,
 * so the rendered diagnostic is byte-stable across runs and worker
 * counts. The registry also hosts the forward-progress counter and
 * the test-only fault-injection schedule: multiple armed faults, each
 * with independent trigger state, plus a SplitMix64 stream for
 * probabilistic firing.
 */

#ifndef FUSION_SIM_GUARD_REGISTRY_HH
#define FUSION_SIM_GUARD_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/guard/guard_config.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace fusion::guard
{

/** One component's outstanding-transaction snapshot. */
struct ComponentState
{
    /** Outstanding transactions (MSHRs, queued DMA lines, ...). */
    std::uint64_t outstanding = 0;
    /** Free-form per-component detail, one logical line. */
    std::string detail;
};

/** Context handed to invariant checkers. */
struct InvariantContext
{
    Tick now = 0;
    /** True for the end-of-sim pass (stricter rules apply). */
    bool atEnd = false;
};

/** Renders a component's current ComponentState. */
using SnapshotFn = std::function<ComponentState()>;

/**
 * Checks one component's invariants; appends one message per
 * violation to the output vector.
 */
using InvariantFn =
    std::function<void(const InvariantContext &,
                       std::vector<std::string> &)>;

/** The per-system registry owned by SimContext. */
class GuardRegistry
{
  public:
    /** Install the run's GuardConfig (System ctor, before wiring). */
    void configure(const GuardConfig &cfg);
    const GuardConfig &config() const { return _cfg; }

    /** Register a named snapshot provider (construction order). */
    void registerSnapshot(std::string name, SnapshotFn fn);
    /** Register a named invariant checker (construction order). */
    void registerInvariant(std::string name, InvariantFn fn);

    /** Record one retirement (op completion, DMA line, grant). */
    void noteProgress() { ++_progress; }
    /** Monotone retirement counter the watchdog samples. */
    std::uint64_t progressCount() const { return _progress; }

    /** Sum of all snapshot providers' outstanding counts. */
    std::uint64_t outstandingTotal() const;

    /** Render every snapshot, one "  name: ..." line each. */
    std::string renderSnapshot() const;

    /**
     * Run every registered invariant checker.
     * @return violations as "checker: message" lines (empty = pass).
     */
    std::vector<std::string> runInvariants(Tick now,
                                           bool at_end) const;

    /**
     * Test-only fault injection: true when the caller should inject
     * fault @p kind right now. Each armed schedule entry fires at
     * most once, from its (triggerAfter+1)-th opportunity onwards,
     * subject to its probability draw. The disabled path is a single
     * load-and-test of a kind bitmask, so production runs stay free.
     */
    bool
    fireFault(FaultKind kind)
    {
        if (!(_armedMask &
              (1u << static_cast<unsigned>(kind)))) [[likely]]
            return false;
        return fireFaultSlow(kind);
    }

    /**
     * Delay parameter of the most recently fired fault (0 before any
     * firing), consumed by delay-style injection sites right after
     * fireFault returns true.
     */
    Cycles faultDelay() const { return _lastFiredDelay; }

    /** Total schedule entries that have fired so far. */
    std::uint32_t faultsFired() const { return _faultsFired; }
    /** Bitmask (1 << kind) of fault kinds that have fired. */
    std::uint32_t firedFaultMask() const { return _firedMask; }

  private:
    bool fireFaultSlow(FaultKind kind);

    /** Trigger state for one effective-schedule entry. */
    struct FaultEntry
    {
        ArmedFault fault;
        std::uint64_t seen = 0;
        bool fired = false;
    };

    GuardConfig _cfg;
    std::uint64_t _progress = 0;
    std::uint32_t _armedMask = 0;
    std::uint32_t _firedMask = 0;
    std::uint32_t _faultsFired = 0;
    Cycles _lastFiredDelay = 0;
    std::vector<FaultEntry> _faults;
    Rng _rng;
    std::vector<std::pair<std::string, SnapshotFn>> _snapshots;
    std::vector<std::pair<std::string, InvariantFn>> _invariants;
};

} // namespace fusion::guard

#endif // FUSION_SIM_GUARD_REGISTRY_HH
