/**
 * @file
 * The AUTO-mode orchestrator: AUTO's TileFrontend. It picks a
 * coherence mode per accelerator invocation and models the cost of
 * changing modes.
 *
 * core::System (kind == SystemKind::Auto) holds one Orchestrator as
 * its frontend. The orchestrator builds the three organizations its
 * rule can pick (SCRATCH, FUSION and FUSION-Dx, in that order,
 * through accel::makeTileFrontend) and owns everything AUTO does.
 * launch() asks decide() which mode runs the invocation; when the
 * answer differs from the active child, the outgoing child is
 * deactivated and the orchestrator models the transition — a
 * flush/DMA event of fixed + per-flushed-line cycles with per-line
 * energy booked to the "orch.flush" component — so switches are not
 * free, emits exactly one ModeSwitch span, and only then launches
 * the invocation on the new child.
 *
 * decide() runs one threshold rule (chooseMode) over the
 * trace-derived per-invocation working set and producer->consumer
 * forwarding fraction (both precomputed at construction, the
 * fraction smoothed by an EWMA across decisions) and an online
 * per-function L0X miss-rate EWMA maintained from FrontendCounters
 * deltas around each child launch. A dwell of kMinDwell invocations
 * damps thrashing.
 */

#ifndef FUSION_ORCHESTRATOR_ORCHESTRATOR_HH
#define FUSION_ORCHESTRATOR_ORCHESTRATOR_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/tile_frontend.hh"

namespace fusion::orch
{

/** Invocations a freshly adopted mode runs before the rule may move
 *  again (every switch pays the flush cost). */
inline constexpr std::uint32_t kMinDwell = 2;

/** Mode-switch cost: one flush/DMA event of fixed + per-flushed-line
 *  cycles, plus per-line energy on the scale of a DMA line move. */
inline constexpr Cycles kSwitchFixedCycles = 200;
inline constexpr Cycles kSwitchCyclesPerLine = 4;
inline constexpr double kSwitchPjPerLine = 15.0;

/** FUSION-Dx when the smoothed forward fraction exceeds this. */
inline constexpr double kDxForwardFraction = 0.02;

/** SCRATCH when the footprint exceeds this multiple of the L1X and
 *  the L0X miss-rate estimate exceeds kScratchL0xMissRate. */
inline constexpr double kScratchFootprintRatio = 4.0;
inline constexpr double kScratchL0xMissRate = 0.5;

/**
 * The rule AUTO runs, seeded from the paper's Table 3 workload
 * characteristics. Invocations with a meaningful producer->consumer
 * forwarding fraction go to FUSION-Dx (the FFT/DISPARITY
 * pipelines); invocations that stream a working set far larger than
 * the L1X while missing heavily in the L0X go to SCRATCH (oracle
 * DMA beats caching when nothing is reused); everything else runs
 * FUSION, which Table 3 / Figure 6 show dominant across the suite.
 * SHARED and FUSION-MESI are never picked (the paper's result is
 * that they are dominated design points), so AUTO never builds them.
 *
 * @param fwd_fraction smoothed forward fraction of the invocation
 * @param footprint_lines unique lines the invocation touches
 * @param l0x_miss_rate its function's L0X miss-rate estimate
 * @param l1x_bytes L1X capacity
 */
core::SystemKind chooseMode(double fwd_fraction,
                            std::uint64_t footprint_lines,
                            double l0x_miss_rate,
                            std::uint64_t l1x_bytes);

class Orchestrator final : public accel::TileFrontend
{
  public:
    /** Build SCRATCH, FUSION and FUSION-Dx from @p env; the trace's
     *  forward plan is computed once, for the rule and FUSION-Dx. */
    explicit Orchestrator(const accel::FrontendEnv &env);

    /** Decide, switch if the mode moved, then run invocation @p idx
     *  on the chosen child. */
    void launch(std::size_t idx, accel::ReplayCore &core,
                sim::SmallFn<void()> done) override;

    /** AUTO runs serially: decisions are per invocation and the
     *  switch flush is a barrier. */
    bool supportsOverlap() const override { return false; }

    /** Every child's counters, then the mode switches and mix. */
    void collect(core::RunResult &r) const override;

    /** Mode to run invocation @p idx under (rule + dwell). */
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

    std::uint64_t switches() const { return _switches; }

  private:
    /** The child that implements @p kind. */
    accel::TileFrontend &child(core::SystemKind kind);

    /** Invocation @p idx retired under the current mode: update its
     *  function's L0X miss-rate estimate and the mode mix. */
    void retire(std::size_t idx);

    /** Flush-cost proxy for switching away before invocation
     *  @p idx: the previous invocation's working set (the lines the
     *  outgoing organization plausibly holds). */
    std::uint64_t flushLinesBefore(std::size_t idx) const;

    SimContext &_ctx;
    const trace::Program &_prog;
    std::uint64_t _l1xBytes;

    /// SCRATCH, FUSION, FUSION-Dx: the modes chooseMode returns.
    std::vector<std::unique_ptr<accel::TileFrontend>> _children;
    /// The child running invocations (null until the first launch).
    accel::TileFrontend *_active = nullptr;
    /// Launches not yet completed (guard: at most one).
    std::size_t _inFlight = 0;

    // Trace-derived per-invocation characteristics (precomputed).
    std::vector<std::uint64_t> _invFootprint;
    std::vector<double> _invForwardFraction;

    /// Forward fraction smoothed across decisions.
    double _fwdEwma = 0.0;

    /// Online per-function L0X miss-rate EWMA.
    struct FuncEstimate
    {
        double l0xMissRate = 0.0;
        bool seen = false;
    };
    std::vector<FuncEstimate> _funcEst;

    // Decision state.
    bool _haveMode = false;
    core::SystemKind _mode = core::SystemKind::Fusion;
    std::uint32_t _dwell = 0;
    std::map<std::string, std::uint64_t> _modeInvocations;
    /// Active child's counters when the running invocation launched.
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
