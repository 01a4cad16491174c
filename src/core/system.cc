#include "core/system.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "orchestrator/orchestrator.hh"
#include "sim/guard/watchdog.hh"

namespace fusion::core
{

namespace
{

/** Percentile summaries for every histogram that saw samples,
 *  keyed by its stats path. */
void
harvestLatency(const stats::Registry &stats,
               std::map<std::string, obs::LatencyStat> &out)
{
    for (const auto &[path, h] : stats.histograms()) {
        if (h.samples() == 0)
            continue;
        obs::LatencyStat ls;
        ls.samples = h.samples();
        ls.mean = h.mean();
        ls.p50 = h.percentile(50.0);
        ls.p95 = h.percentile(95.0);
        ls.p99 = h.percentile(99.0);
        ls.max = h.maxValue();
        out[path] = ls;
    }
}

} // namespace

System::System(const SystemConfig &cfg, const trace::Program &prog)
    : _cfg(cfg), _prog(prog)
{
    // Arm the hardening layer before any component constructs, so
    // components can self-register snapshots and invariants in
    // deterministic (construction) order.
    _ctx.guard.configure(cfg.guard);

    // Telemetry likewise configures before components construct so
    // they can register tracks/gauges in deterministic order. When
    // everything is off this leaves a null tracer and no sampler —
    // the run is byte-identical to an untraced one.
    _ctx.obs.configure(cfg.obs);
    _obsTracer = _ctx.obs.tracer();
    if (_obsTracer)
        _obsTrack = _obsTracer->registerTrack("system");
    _ctx.obs.registerGauge("eq.pending", [this] {
        return static_cast<double>(_ctx.eq.pending());
    });
    _ctx.obs.registerCounter("eq.events", [this] {
        return static_cast<double>(_ctx.eq.executed());
    });

    _ctx.stats.counter("scheduler.overlap_launches", _overlapLaunches);

    // Map every traced virtual page up front (the OS would have
    // faulted them in during the original execution), and count the
    // lines the invocations touch (the accelerator footprint) on the
    // way. The fresh page table gives each new virtual page the next
    // physical page, so one 64-bit line mask per physical page counts
    // distinct virtual lines. An op on the line of the op before it
    // adds nothing.
    static_assert(vm::kPageBytes / kLineBytes == 64);
    std::vector<std::uint64_t> line_masks;
    auto map_ops = [this, &line_masks](
                       const std::vector<trace::TraceOp> &ops,
                       bool count) {
        Addr last = ~Addr{0};
        for (const auto &op : ops) {
            if (op.kind == trace::OpKind::Compute ||
                lineAlign(op.addr) == last)
                continue;
            last = lineAlign(op.addr);
            const Addr ppage =
                vm::pageNumber(_pt.ensureMapped(_prog.pid, op.addr));
            if (!count)
                continue;
            if (ppage >= line_masks.size())
                line_masks.resize(ppage + 1, 0);
            line_masks[ppage] |= std::uint64_t{1}
                                 << (vm::pageOffset(op.addr) >> kLineShift);
        }
    };
    map_ops(prog.hostInit, false);
    map_ops(prog.hostFinal, false);
    for (const auto &inv : prog.invocations)
        map_ops(inv.ops, true);
    for (std::uint64_t mask : line_masks)
        _footprintLines += static_cast<std::uint64_t>(std::popcount(mask));

    // Host tile, accelerator cores, then the accelerator side.
    _host = std::make_unique<HostTile>(_ctx, _pt, prog.pid);
    std::uint32_t num_accels = std::max(1u, prog.accelCount());
    accel::ReplayCoreParams ap;
    ap.computeComponent = energy::comp::kAxcCompute;
    ap.width = kDatapathWidth;
    ap.storeBuffer = kAccelStoreBuffer;
    for (std::uint32_t a = 0; a < num_accels; ++a) {
        ap.name = "axc" + std::to_string(a) + ".core";
        _cores.push_back(std::make_unique<accel::ReplayCore>(_ctx, ap));
    }

    // A static kind constructs exactly one frontend; AUTO's frontend
    // is the orchestrator, which builds the organizations it picks
    // between.
    accel::FrontendEnv env{_ctx, _cfg, _prog, _host->llc, _pt,
                           num_accels};
    if (cfg.kind == SystemKind::Auto)
        _frontend = std::make_unique<orch::Orchestrator>(env);
    else
        _frontend = accel::makeTileFrontend(cfg.kind, env);
}

System::~System() = default;

RunResult
System::run()
{
    // Set by the completion closure; kTickNever until the program
    // finishes.
    Tick finish_tick = kTickNever;

    // Bind this thread's panics to our clock and stand up the
    // forward-progress watchdog for the duration of the run.
    guard::TickScope tick_scope(_ctx.eq);
    guard::Watchdog wd(_ctx.guard, _ctx.eq);

    _ctx.eq.scheduleIn(0, [this, &finish_tick] {
        _host->run(_prog.hostInit, [this, &finish_tick] {
            _accelStart = _ctx.now();
            auto run_all = [this](sim::SmallFn<void()> then) {
                // Frontends opt in or out of overlap (SCRATCH's one
                // DMA engine and AUTO's switch flush serialize).
                if (_cfg.overlapInvocations &&
                    _frontend->supportsOverlap()) {
                    runOverlapped(std::move(then));
                } else {
                    runInvocation(0, std::move(then));
                }
            };
            run_all([this, &finish_tick] {
                _accelEnd = _ctx.now();
                _host->run(_prog.hostFinal, [this, &finish_tick] {
                    finish_tick = _ctx.now();
                });
            });
        });
    });

    // Interval metrics ride the event queue at Stats priority so a
    // tick's component state is settled before the gauges are read.
    if (Tick mi = _ctx.obs.metricsInterval(); mi > 0)
        scheduleSample(mi);

    // Drain: completion plus any outstanding lease-expiry
    // housekeeping (self-downgrades schedule into the future).
    const std::uint64_t events_before = _ctx.eq.executed();
    const auto host_start = std::chrono::steady_clock::now();
    wd.drain();
    const auto host_end = std::chrono::steady_clock::now();
    wd.onDrained(finish_tick != kTickNever);
    wd.atEnd();

    RunResult r;
    RunPerf perf;
    perf.hostSeconds =
        std::chrono::duration<double>(host_end - host_start).count();
    perf.events = _ctx.eq.executed() - events_before;
    perf.eventsPerSecond =
        perf.hostSeconds > 0.0
            ? static_cast<double>(perf.events) / perf.hostSeconds
            : 0.0;
    r.perf = perf;
    r.workload = _prog.name;
    r.kind = _cfg.kind;
    r.totalCycles = finish_tick;
    r.accelCycles = _accelEnd - _accelStart;
    r.funcCycles = _funcCycles;
    r.invocationCycles = _invCycles;
    r.metrics = _ctx.obs.takeMetrics();
    r.trace = _ctx.obs.shareTrace();
    r.faultsFired = _ctx.guard.faultsFired();
    r.faultFiredMask = _ctx.guard.firedFaultMask();
    collect(r);
    return r;
}

void
System::scheduleSample(Tick interval)
{
    _ctx.eq.scheduleIn(
        static_cast<Cycles>(interval),
        [this, interval] {
            _ctx.obs.sample(_ctx.now());
            // The queue removed this event from the pending count
            // before invoking it, so pending() now counts only real
            // simulation work: reschedule while any remains, else
            // let the drain loop terminate.
            if (_ctx.eq.pending() > 0)
                scheduleSample(interval);
        },
        EventPriority::Stats);
}

void
System::runInvocation(std::size_t idx, sim::SmallFn<void()> then)
{
    if (idx >= _prog.invocations.size()) {
        then();
        return;
    }
    launchInvocation(idx, [this, idx,
                           then = std::move(then)]() mutable {
        runInvocation(idx + 1, std::move(then));
    });
}

void
System::launchInvocation(std::size_t idx,
                         sim::SmallFn<void()> completion_cb)
{
    const trace::Invocation &inv = _prog.invocations[idx];
    const trace::FunctionMeta &meta =
        _prog.functions[static_cast<std::size_t>(inv.func)];
    accel::ReplayCore &core =
        *_cores[static_cast<std::size_t>(meta.accel)];
    Tick t0 = _ctx.now();
    double e0 = _ctx.energy.grandTotal();
    if (_obsTracer)
        _obsTracer->begin(_obsTrack, obs::SpanKind::Invocation,
                          static_cast<Addr>(idx), t0);

    auto completion = [this, idx, name = meta.name, t0, e0,
                       cb = std::move(completion_cb)]() mutable {
        if (_obsTracer)
            _obsTracer->end(_obsTrack, obs::SpanKind::Invocation,
                            static_cast<Addr>(idx), _ctx.now());
        _funcCycles[name] += _ctx.now() - t0;
        // Energy attribution per function (Table 3 %En). Under
        // overlapped execution concurrent invocations share the
        // window, so this is approximate there; exact when serial.
        _funcEnergyPj[name] += _ctx.energy.grandTotal() - e0;
        if (_invCycles.size() < _prog.invocations.size())
            _invCycles.resize(_prog.invocations.size(), 0);
        _invCycles[idx] = _ctx.now() - t0;
        cb();
    };
    _frontend->launch(idx, core, std::move(completion));
}

void
System::runOverlapped(sim::SmallFn<void()> then)
{
    std::size_t n = _prog.invocations.size();
    if (n == 0) {
        then();
        return;
    }
    _invDeps = trace::invocationDependences(_prog);
    _invDone.assign(n, false);
    _invLaunched.assign(n, false);
    _accelBusy.assign(_cores.size(), false);
    _invRemaining = n;
    _overlapThen = std::move(then);
    pumpOverlap();
}

void
System::pumpOverlap()
{
    if (_invRemaining == 0) {
        if (!_overlapThen)
            return; // completion already delivered reentrantly
        auto then = std::move(_overlapThen); // move empties it
        then();
        return;
    }
    for (std::size_t j = 0; j < _prog.invocations.size(); ++j) {
        if (_invLaunched[j])
            continue;
        auto accel = static_cast<std::size_t>(
            _prog.functions[static_cast<std::size_t>(
                                _prog.invocations[j].func)]
                .accel);
        if (_accelBusy[accel])
            continue;
        bool ready = true;
        for (std::uint32_t d : _invDeps[j]) {
            if (!_invDone[d]) {
                ready = false;
                break;
            }
        }
        if (!ready)
            continue;
        _invLaunched[j] = true;
        _accelBusy[accel] = true;
        ++_overlapLaunches;
        launchInvocation(j, [this, j, accel] {
            _invDone[j] = true;
            _accelBusy[accel] = false;
            --_invRemaining;
            pumpOverlap();
        });
    }
}

void
System::collect(RunResult &r) const
{
    r.energyPj = _ctx.energy.components();
    r.workingSetBytes = _footprintLines * kLineBytes;

    // Summed over every link bound under the path (AUTO: FUSION's
    // and FUSION-Dx's); 0 when the organization has no such link.
    auto link_count = [this](const std::string &path) {
        return _ctx.stats.has(path) ? _ctx.stats.value(path) : 0;
    };
    r.l0xL1xCtrlMsgs = link_count("links.l0x_l1x.ctrl_msgs");
    r.l0xL1xDataMsgs = link_count("links.l0x_l1x.data_msgs");
    r.l0xL1xFlits = link_count("links.l0x_l1x.flits");
    // SCRATCH's DMA link books to the same ledger components but a
    // distinct stats path; fold both into the L1X<->L2 counters.
    r.l1xL2CtrlMsgs = link_count("links.l1x_l2.ctrl_msgs") +
                      link_count("links.dma.ctrl_msgs");
    r.l1xL2DataMsgs = link_count("links.l1x_l2.data_msgs") +
                      link_count("links.dma.data_msgs");
    r.l0xL0xDataMsgs = link_count("links.l0x_l0x.data_msgs");

    // Per-organization counters come from the frontend. Its
    // collect() adds to fields that start at zero, so AUTO's can
    // add its children's and the mode block.
    _frontend->collect(r);

    r.funcEnergyPj = _funcEnergyPj;

    // Latency percentiles only when telemetry is on: the default
    // RunResult (and its JSON) must stay byte-identical to an
    // instrumentation-free build.
    if (_cfg.obs.anyEnabled())
        harvestLatency(_ctx.stats, r.latency);
}

} // namespace fusion::core
