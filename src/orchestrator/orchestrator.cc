#include "orchestrator/orchestrator.hh"

#include "sim/logging.hh"
#include "trace/analysis.hh"

namespace fusion::orch
{

namespace
{

/** EWMA weight for the forward-fraction and miss-rate estimates. */
constexpr double kAlpha = 0.5;

/** Small integer id for a ModeSwitch span: (from << 8) | to. */
Addr
switchAddr(core::SystemKind from, core::SystemKind to)
{
    return (static_cast<Addr>(from) << 8) |
           static_cast<Addr>(to);
}

} // namespace

core::SystemKind
chooseMode(double fwd_fraction, std::uint64_t footprint_lines,
           double l0x_miss_rate, std::uint64_t l1x_bytes)
{
    if (fwd_fraction > kDxForwardFraction)
        return core::SystemKind::FusionDx;
    double fp_bytes =
        static_cast<double>(footprint_lines * kLineBytes);
    bool streaming =
        fp_bytes > kScratchFootprintRatio *
                       static_cast<double>(l1x_bytes) &&
        l0x_miss_rate > kScratchL0xMissRate;
    if (streaming)
        return core::SystemKind::Scratch;
    return core::SystemKind::Fusion;
}

Orchestrator::Orchestrator(const accel::FrontendEnv &env)
    : accel::TileFrontend(core::SystemKind::Auto), _ctx(env.ctx),
      _prog(env.prog), _l1xBytes(env.cfg.l1xBytes)
{
    // The forwarding fraction comes from the same producer->consumer
    // plan FUSION-Dx forwards along, so the rule sees exactly the
    // signal the Dx hardware would exploit.
    const trace::ForwardPlan plan = trace::planForwarding(_prog);
    for (core::SystemKind k :
         {core::SystemKind::Scratch, core::SystemKind::Fusion,
          core::SystemKind::FusionDx})
        _children.push_back(accel::makeTileFrontend(k, env, &plan));

    // Trace-derived per-invocation characteristics.
    _invFootprint.reserve(_prog.invocations.size());
    for (const auto &inv : _prog.invocations)
        _invFootprint.push_back(trace::footprintLines(inv.ops));
    _invForwardFraction.assign(_prog.invocations.size(), 0.0);
    for (const auto &[idx, lines] : plan) {
        if (idx < _invForwardFraction.size() &&
            _invFootprint[idx] > 0) {
            _invForwardFraction[idx] =
                static_cast<double>(lines.size()) /
                static_cast<double>(_invFootprint[idx]);
        }
    }
    _funcEst.resize(_prog.functions.size());

    _ctx.stats.counters("orchestrator", {{"decisions", _decisions},
                                         {"switches", _switches},
                                         {"flush_lines", _flushLines}});
    _ecFlush = _ctx.energy.component("orch.flush");

    _tracer = _ctx.obs.tracer();
    if (_tracer)
        _track = _tracer->registerTrack("orchestrator");
    _ctx.obs.registerGauge("orch.mode", [this] {
        return _haveMode ? static_cast<double>(_mode) : -1.0;
    });
    _ctx.obs.registerCounter("orch.switches", [this] {
        return static_cast<double>(_switches);
    });
    // One invocation in flight at most, and never without an active
    // child (single active frontend per invocation).
    _ctx.guard.registerInvariant(
        "orchestrator", [this](const guard::InvariantContext &,
                               std::vector<std::string> &out) {
            if (_inFlight > 1) {
                out.push_back("AUTO mode must run serially; " +
                              std::to_string(_inFlight) +
                              " invocations in flight");
            }
            if (_inFlight == 1 && _active == nullptr) {
                out.push_back("invocation in flight with no "
                              "active frontend");
            }
        });
}

accel::TileFrontend &
Orchestrator::child(core::SystemKind kind)
{
    for (auto &c : _children) {
        if (c->kind() == kind)
            return *c;
    }
    fusion_panic("orchestrator: no frontend for decided mode ",
                 core::systemKindName(kind));
}

void
Orchestrator::launch(std::size_t idx, accel::ReplayCore &core,
                     sim::SmallFn<void()> done)
{
    accel::TileFrontend &next = child(decide(idx));
    auto run = [this, idx, &core, done = std::move(done)]() mutable {
        ++_inFlight;
        _snap = _active->counters();
        _active->launch(idx, core,
                        [this, idx, done = std::move(done)]() mutable {
                            retire(idx);
                            --_inFlight;
                            done();
                        });
    };
    // Adopting the first mode is free; a change of mode deactivates
    // the outgoing child and pays the modeled flush before launch.
    if (_active == nullptr || _active == &next) {
        _active = &next;
        run();
        return;
    }
    core::SystemKind from = _active->kind();
    _active->deactivate();
    _active = &next;
    transition(from, next.kind(), flushLinesBefore(idx), std::move(run));
}

void
Orchestrator::collect(core::RunResult &r) const
{
    for (const auto &c : _children)
        c->collect(r);
    r.modeSwitches = _switches;
    r.modeInvocations = _modeInvocations;
}

core::SystemKind
Orchestrator::decide(std::size_t idx)
{
    // Smooth the forwarding signal: per-invocation fractions in
    // pipelined programs alternate between producer (high) and
    // consumer (zero) invocations, and deciding on the raw value
    // would thrash FUSION<->FUSION-Dx, paying a flush each time.
    // The EWMA tracks the program's sustained forwarding level.
    double fwd = _invForwardFraction[idx];
    if (_haveMode)
        _fwdEwma += kAlpha * (fwd - _fwdEwma);
    else
        _fwdEwma = fwd;
    const FuncEstimate &est = _funcEst[static_cast<std::size_t>(
        _prog.invocations[idx].func)];
    core::SystemKind pick = chooseMode(_fwdEwma, _invFootprint[idx],
                                       est.l0xMissRate, _l1xBytes);
    ++_decisions;
    // Dwell hysteresis: a freshly adopted mode must run kMinDwell
    // invocations before the rule may move again, so borderline
    // signals cannot thrash (every switch pays the flush cost).
    if (_haveMode && pick != _mode && _dwell < kMinDwell)
        pick = _mode;
    if (!_haveMode || pick != _mode) {
        _mode = pick;
        _haveMode = true;
        _dwell = 0;
    }
    ++_dwell;
    return pick;
}

void
Orchestrator::transition(core::SystemKind from, core::SystemKind to,
                         std::uint64_t flush_lines,
                         sim::SmallFn<void()> done)
{
    ++_switches;
    _flushLines += flush_lines;
    // One flush/DMA event: the outgoing organization's dirty state
    // drains to the host (fixed controller cost + per-line burst),
    // with per-line energy on the same scale as a DMA line move.
    Tick cost = kSwitchFixedCycles +
                kSwitchCyclesPerLine * static_cast<Tick>(flush_lines);
    _ctx.energy.add(_ecFlush, kSwitchPjPerLine *
                                  static_cast<double>(flush_lines));
    if (_tracer) {
        _tracer->complete(_track, obs::SpanKind::ModeSwitch,
                          switchAddr(from, to), _ctx.now(),
                          _ctx.now() + cost);
    }
    _ctx.eq.scheduleIn(static_cast<Cycles>(cost), std::move(done));
}

void
Orchestrator::retire(std::size_t idx)
{
    const accel::FrontendCounters now = _active->counters();
    FuncEstimate &est = _funcEst[static_cast<std::size_t>(
        _prog.invocations[idx].func)];
    std::uint64_t l0h = now.l0xHits - _snap.l0xHits;
    std::uint64_t l0m = now.l0xMisses - _snap.l0xMisses;
    std::uint64_t l1h = now.l1xHits - _snap.l1xHits;
    std::uint64_t l1m = now.l1xMisses - _snap.l1xMisses;
    if (l0h + l0m > 0 || l1h + l1m > 0) {
        double r0 = l0h + l0m == 0
                        ? 0.0
                        : static_cast<double>(l0m) /
                              static_cast<double>(l0h + l0m);
        if (est.seen) {
            est.l0xMissRate += kAlpha * (r0 - est.l0xMissRate);
        } else {
            est.l0xMissRate = r0;
            est.seen = true;
        }
    }
    ++_modeInvocations[core::systemKindCliName(_mode)];
}

std::uint64_t
Orchestrator::flushLinesBefore(std::size_t idx) const
{
    // The outgoing organization plausibly holds the previous
    // invocation's working set; that is what the flush must move.
    return idx == 0 ? 0 : _invFootprint[idx - 1];
}

} // namespace fusion::orch
