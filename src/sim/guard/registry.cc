/**
 * @file
 * GuardRegistry: snapshot rendering, invariant sweeps, and the
 * multi-fault schedule trigger.
 */

#include "sim/guard/registry.hh"

#include <sstream>

namespace fusion::guard
{

void
GuardRegistry::configure(const GuardConfig &cfg)
{
    _cfg = cfg;
    _faults.clear();
    _armedMask = 0;
    _firedMask = 0;
    _faultsFired = 0;
    _lastFiredDelay = 0;
    for (const ArmedFault &f : cfg.schedule.faults) {
        if (f.kind != FaultKind::None)
            _faults.push_back({f});
    }
    for (const FaultEntry &e : _faults)
        _armedMask |= 1u << static_cast<unsigned>(e.fault.kind);
    _rng = Rng(cfg.schedule.seed ? cfg.schedule.seed
                                 : 0x9e3779b97f4a7c15ull);
}

void
GuardRegistry::registerSnapshot(std::string name, SnapshotFn fn)
{
    _snapshots.emplace_back(std::move(name), std::move(fn));
}

void
GuardRegistry::registerInvariant(std::string name, InvariantFn fn)
{
    _invariants.emplace_back(std::move(name), std::move(fn));
}

std::uint64_t
GuardRegistry::outstandingTotal() const
{
    std::uint64_t total = 0;
    for (const auto &[name, fn] : _snapshots)
        total += fn().outstanding;
    return total;
}

std::string
GuardRegistry::renderSnapshot() const
{
    std::ostringstream os;
    for (const auto &[name, fn] : _snapshots) {
        ComponentState s = fn();
        os << "  " << name << ": outstanding=" << s.outstanding;
        if (!s.detail.empty())
            os << ' ' << s.detail;
        os << '\n';
    }
    return os.str();
}

std::vector<std::string>
GuardRegistry::runInvariants(Tick now, bool at_end) const
{
    InvariantContext ctx{now, at_end};
    std::vector<std::string> violations;
    for (const auto &[name, fn] : _invariants) {
        std::vector<std::string> local;
        fn(ctx, local);
        for (auto &m : local)
            violations.push_back(name + ": " + std::move(m));
    }
    return violations;
}

bool
GuardRegistry::fireFaultSlow(FaultKind kind)
{
    // One shared opportunity counter per entry: every call for the
    // entry's kind advances it, whether or not the draw succeeds, so
    // a p < 1 entry keeps retrying on later opportunities.
    bool any_pending = false;
    bool fired = false;
    for (FaultEntry &e : _faults) {
        if (e.fault.kind != kind)
            continue;
        if (e.fired)
            continue;
        if (fired) {
            any_pending = true;
            continue; // at most one entry fires per opportunity
        }
        if (e.seen++ < e.fault.triggerAfter) {
            any_pending = true;
            continue;
        }
        if (e.fault.probability < 1.0 &&
            _rng.uniform() >= e.fault.probability) {
            any_pending = true;
            continue;
        }
        e.fired = true;
        fired = true;
        _lastFiredDelay = e.fault.delay;
        _firedMask |= 1u << static_cast<unsigned>(kind);
        ++_faultsFired;
    }
    if (!any_pending)
        _armedMask &= ~(1u << static_cast<unsigned>(kind));
    return fired;
}

} // namespace fusion::guard
