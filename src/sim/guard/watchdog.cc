/**
 * @file
 * Watchdog liveness checks and diagnostic-dump construction.
 */

#include "sim/guard/watchdog.hh"

#include <sstream>

#include "sim/event_queue.hh"

namespace fusion::guard
{

namespace
{

/** Executed events between two wall-clock reads. */
constexpr std::uint64_t kWallCheckEvents = 1024;

} // namespace

Watchdog::Watchdog(GuardRegistry &reg, EventQueue &eq)
    : _reg(reg), _eq(eq), _active(reg.config().anyEnabled()),
      _nextWallCheck(eq.executed() + kWallCheckEvents),
      _start(std::chrono::steady_clock::now())
{
}

void
Watchdog::drain()
{
    if (!_active) {
        _eq.run();
        return;
    }
    while (!_eq.empty()) {
        check();
        _eq.runBatch();
    }
}

void
Watchdog::check()
{
    const GuardConfig &cfg = _reg.config();
    const Tick now = _eq.now();
    const Tick head = _eq.headTick();

    // Only inspect state at tick boundaries: once every event of the
    // completed tick has run, in-flight same-tick transients (e.g. a
    // FUSION-Dx forward plus its lease-transfer notice) are settled.
    if (head > now) {
        if (cfg.invariantPeriod != 0 && now >= _nextInvariantTick) {
            checkInvariants(now, false);
            _nextInvariantTick = now + cfg.invariantPeriod;
        }

        if (cfg.maxCycles != 0 && head > cfg.maxCycles) {
            trip(ErrorCategory::CycleBudget,
                 "cycle budget of " + std::to_string(cfg.maxCycles) +
                     " exceeded (next event at tick " +
                     std::to_string(head) + ")");
        }

        if (cfg.noProgressTicks != 0) {
            std::uint64_t p = _reg.progressCount();
            if (p != _lastProgress) {
                _lastProgress = p;
                _lastProgressTick = now;
            } else if (now > _lastProgressTick + cfg.noProgressTicks &&
                       _reg.outstandingTotal() > 0) {
                trip(ErrorCategory::NoProgress,
                     "no retirements for " +
                         std::to_string(now - _lastProgressTick) +
                         " ticks with outstanding transactions");
            }
        }
    }

    // Wall-clock checks are amortized: one clock read per 1k events.
    // A batch stops after EventQueue::kBatchCap events even inside
    // one tick, so a same-tick livelock still reaches this read.
    if (cfg.maxWallMs != 0 && _eq.executed() >= _nextWallCheck) {
        _nextWallCheck = _eq.executed() + kWallCheckEvents;
        auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - _start)
                .count();
        if (static_cast<std::uint64_t>(elapsed) > cfg.maxWallMs) {
            trip(ErrorCategory::WallClock,
                 "wall-clock budget of " +
                     std::to_string(cfg.maxWallMs) + " ms exceeded");
        }
    }
}

void
Watchdog::onDrained(bool finished)
{
    if (finished)
        return;
    trip(ErrorCategory::Deadlock,
         "event queue drained before program completion");
}

void
Watchdog::atEnd()
{
    const GuardConfig &cfg = _reg.config();
    if (cfg.invariantsAtEnd || cfg.invariantPeriod != 0)
        checkInvariants(_eq.now(), true);
}

void
Watchdog::trip(ErrorCategory cat, std::string message)
{
    SimError e;
    e.category = cat;
    e.component = "watchdog";
    e.message = std::move(message);
    e.tick = _eq.now();
    std::ostringstream os;
    os << "event queue: pending=" << _eq.pending()
       << " executed=" << _eq.executed();
    if (!_eq.empty())
        os << " head=" << _eq.headTick();
    os << '\n' << _reg.renderSnapshot();
    e.diagnostic = os.str();
    throw SimErrorException(std::move(e));
}

void
Watchdog::checkInvariants(Tick now, bool at_end)
{
    std::vector<std::string> violations =
        _reg.runInvariants(now, at_end);
    if (violations.empty())
        return;
    SimError e;
    e.category = ErrorCategory::Invariant;
    e.component = "invariant-checker";
    e.message = std::to_string(violations.size()) +
                " invariant violation(s)" +
                (at_end ? " at end-of-sim" : "");
    e.tick = now;
    std::ostringstream os;
    for (const auto &v : violations)
        os << "  " << v << '\n';
    os << _reg.renderSnapshot();
    e.diagnostic = os.str();
    throw SimErrorException(std::move(e));
}

} // namespace fusion::guard
