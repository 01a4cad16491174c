#include "orchestrator/orchestrator.hh"

#include "trace/analysis.hh"

namespace fusion::orch
{

namespace
{

/** EWMA weight for the online miss-rate estimates. */
constexpr double kAlpha = 0.5;

/** Small integer id for a ModeSwitch span: (from << 8) | to. */
Addr
switchAddr(core::SystemKind from, core::SystemKind to)
{
    return (static_cast<Addr>(from) << 8) |
           static_cast<Addr>(to);
}

} // namespace

Orchestrator::Orchestrator(SimContext &ctx,
                           const core::SystemConfig &cfg,
                           const trace::Program &prog)
    : _ctx(ctx), _cfg(cfg), _prog(prog), _policy(makePolicy(cfg))
{
    // Trace-derived per-invocation characteristics. The forwarding
    // fraction comes from the same producer->consumer analysis
    // FUSION-Dx plans with, so the policy sees exactly the signal
    // the Dx hardware would exploit.
    _invFootprint.reserve(prog.invocations.size());
    for (const auto &inv : prog.invocations)
        _invFootprint.push_back(trace::footprintLines(inv.ops));
    _invForwardFraction.assign(prog.invocations.size(), 0.0);
    trace::ForwardPlan plan = trace::planForwarding(prog);
    for (const auto &[idx, lines] : plan) {
        if (idx < _invForwardFraction.size() &&
            _invFootprint[idx] > 0) {
            _invForwardFraction[idx] =
                static_cast<double>(lines.size()) /
                static_cast<double>(_invFootprint[idx]);
        }
    }
    _funcEst.resize(prog.functions.size());

    ctx.stats.counters("orchestrator", {{"decisions", _decisions},
                                        {"switches", _switches},
                                        {"flush_lines", _flushLines}});
    _ecFlush = ctx.energy.component("orch.flush");

    _tracer = ctx.obs.tracer();
    if (_tracer)
        _track = _tracer->registerTrack("orchestrator");
    ctx.obs.registerGauge("orch.mode", [this] {
        return _haveMode ? static_cast<double>(_mode) : -1.0;
    });
    ctx.obs.registerCounter("orch.switches", [this] {
        return static_cast<double>(_switches);
    });
}

InvocationOutlook
Orchestrator::outlook(std::size_t idx) const
{
    const trace::Invocation &inv = _prog.invocations[idx];
    InvocationOutlook o;
    o.func = static_cast<std::uint32_t>(inv.func);
    o.footprintLines = _invFootprint[idx];
    o.forwardFraction = _invForwardFraction[idx];
    const FuncEstimate &est =
        _funcEst[static_cast<std::size_t>(inv.func)];
    o.l0xMissRate = est.l0xMissRate;
    o.l1xMissRate = est.l1xMissRate;
    return o;
}

core::SystemKind
Orchestrator::decide(std::size_t idx)
{
    core::SystemKind pick = _policy->choose(outlook(idx));
    ++_decisions;
    // Dwell hysteresis: a freshly adopted mode must run minDwell
    // invocations before the policy may move again, so borderline
    // outlooks cannot thrash (every switch pays the flush cost).
    if (_haveMode && pick != _mode &&
        _dwell < _cfg.orchestrator.minDwell)
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
    const core::OrchestratorConfig &oc = _cfg.orchestrator;
    ++_switches;
    _flushLines += flush_lines;
    // One flush/DMA event: the outgoing organization's dirty state
    // drains to the host (fixed controller cost + per-line burst),
    // with per-line energy on the same scale as a DMA line move.
    Tick cost = oc.switchFixedCycles +
                oc.switchCyclesPerLine *
                    static_cast<Tick>(flush_lines);
    _ctx.energy.add(_ecFlush, oc.switchPjPerLine *
                                  static_cast<double>(flush_lines));
    if (_tracer) {
        _tracer->complete(_track, obs::SpanKind::ModeSwitch,
                          switchAddr(from, to), _ctx.now(),
                          _ctx.now() + cost);
    }
    _ctx.eq.scheduleIn(static_cast<Cycles>(cost), std::move(done));
}

void
Orchestrator::beforeLaunch(std::size_t idx,
                           const accel::FrontendCounters &snap)
{
    (void)idx;
    _snap = snap;
}

void
Orchestrator::afterInvocation(std::size_t idx,
                              const accel::FrontendCounters &now,
                              std::uint64_t cycles, double energy_pj)
{
    const trace::Invocation &inv = _prog.invocations[idx];
    FuncEstimate &est =
        _funcEst[static_cast<std::size_t>(inv.func)];
    auto rate = [](std::uint64_t miss,
                   std::uint64_t hit) -> double {
        std::uint64_t total = miss + hit;
        return total == 0
                   ? 0.0
                   : static_cast<double>(miss) /
                         static_cast<double>(total);
    };
    std::uint64_t l0h = now.l0xHits - _snap.l0xHits;
    std::uint64_t l0m = now.l0xMisses - _snap.l0xMisses;
    std::uint64_t l1h = now.l1xHits - _snap.l1xHits;
    std::uint64_t l1m = now.l1xMisses - _snap.l1xMisses;
    if (l0h + l0m > 0 || l1h + l1m > 0) {
        double r0 = rate(l0m, l0h);
        double r1 = rate(l1m, l1h);
        if (est.seen) {
            est.l0xMissRate += kAlpha * (r0 - est.l0xMissRate);
            est.l1xMissRate += kAlpha * (r1 - est.l1xMissRate);
        } else {
            est.l0xMissRate = r0;
            est.l1xMissRate = r1;
            est.seen = true;
        }
    }

    ++_modeInvocations[core::systemKindCliName(_mode)];
    InvocationOutcome res;
    res.mode = _mode;
    res.cycles = cycles;
    res.energyPj = energy_pj;
    _policy->observe(outlook(idx), res);
}

std::uint64_t
Orchestrator::flushLinesBefore(std::size_t idx) const
{
    // The outgoing organization plausibly holds the previous
    // invocation's working set; that is what the flush must move.
    return idx == 0 ? 0 : _invFootprint[idx - 1];
}

} // namespace fusion::orch
