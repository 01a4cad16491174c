/**
 * @file
 * The AUTO-mode orchestrator: picks a coherence mode per accelerator
 * invocation and models the cost of changing modes.
 *
 * core::System (kind == SystemKind::Auto) constructs every static
 * TileFrontend plus one Orchestrator. Before each invocation it asks
 * decide() which mode to run under; when the answer differs from the
 * active frontend, the orchestrator models the transition — a
 * flush/DMA event of fixed + per-flushed-line cycles with per-line
 * energy booked to the "orch.flush" component — so switches are not
 * free, emits exactly one ModeSwitch span, and only then does the
 * invocation launch on the new frontend.
 *
 * Decision inputs are the trace-derived per-invocation working set
 * and producer->consumer forwarding fraction (both precomputed at
 * construction) plus online per-function L0X/L1X miss-rate EWMAs
 * maintained from FrontendCounters deltas across retired
 * invocations. The pluggable ModePolicy (src/orchestrator/policy.hh)
 * turns an outlook into a mode; dwell hysteresis (minDwell) damps
 * thrashing regardless of policy.
 */

#ifndef FUSION_ORCHESTRATOR_ORCHESTRATOR_HH
#define FUSION_ORCHESTRATOR_ORCHESTRATOR_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/tile_frontend.hh"
#include "orchestrator/policy.hh"

namespace fusion::orch
{

class Orchestrator
{
  public:
    Orchestrator(SimContext &ctx, const core::SystemConfig &cfg,
                 const trace::Program &prog);

    /** Mode to run invocation @p idx under (policy + hysteresis). */
    core::SystemKind decide(std::size_t idx);

    /**
     * Model the @p from -> @p to switch: schedules one flush/DMA
     * cost event (@p flush_lines drives the per-line terms), books
     * its energy, records exactly one ModeSwitch span, and fires
     * @p done when the transition cost has elapsed.
     */
    void transition(core::SystemKind from, core::SystemKind to,
                    std::uint64_t flush_lines,
                    sim::SmallFn<void()> done);

    /** Counter snapshot taken just before invocation @p idx runs. */
    void beforeLaunch(std::size_t idx,
                      const accel::FrontendCounters &snap);

    /** Invocation @p idx retired under the current mode: update the
     *  online estimates and feed the policy's learner. */
    void afterInvocation(std::size_t idx,
                         const accel::FrontendCounters &now,
                         std::uint64_t cycles, double energy_pj);

    /** Flush-cost proxy for switching away before invocation
     *  @p idx: the previous invocation's working set (the lines the
     *  outgoing organization plausibly holds). */
    std::uint64_t flushLinesBefore(std::size_t idx) const;

    /** The policy in use (display). */
    const char *policyName() const { return _policy->name(); }

    std::uint64_t switches() const { return _switches; }
    /** Invocation counts per mode short name (RunResult). */
    const std::map<std::string, std::uint64_t> &
    modeInvocations() const
    {
        return _modeInvocations;
    }

  private:
    /** Assemble the policy's view of invocation @p idx. */
    InvocationOutlook outlook(std::size_t idx) const;

    SimContext &_ctx;
    const core::SystemConfig &_cfg;
    const trace::Program &_prog;
    std::unique_ptr<ModePolicy> _policy;

    // Trace-derived per-invocation characteristics (precomputed).
    std::vector<std::uint64_t> _invFootprint;
    std::vector<double> _invForwardFraction;

    // Online per-function miss-rate EWMAs.
    struct FuncEstimate
    {
        double l0xMissRate = 0.0;
        double l1xMissRate = 0.0;
        bool seen = false;
    };
    std::vector<FuncEstimate> _funcEst;

    // Decision state.
    bool _haveMode = false;
    core::SystemKind _mode = core::SystemKind::Fusion;
    std::uint32_t _dwell = 0;
    std::map<std::string, std::uint64_t> _modeInvocations;
    accel::FrontendCounters _snap;

    // Counters, bound into ctx.stats under "orchestrator.<stat>".
    std::uint64_t _decisions = 0;
    std::uint64_t _switches = 0;
    std::uint64_t _flushLines = 0;
    energy::ComponentId _ecFlush;
    obs::SpanTracer *_tracer = nullptr;
    std::uint32_t _track = 0;
};

} // namespace fusion::orch

#endif // FUSION_ORCHESTRATOR_ORCHESTRATOR_HH
