/**
 * @file
 * The top-level simulated system: one host tile (core, L1, NUCA LLC
 * with directory MESI, DRAM) plus the accelerator organization the
 * SystemConfig selects, held behind the uniform TileFrontend
 * interface — scratchpads + oracle DMA, a shared MESI L1X, the
 * FUSION tile (L0Xs + ACC L1X, optionally with Dx forwarding), the
 * FUSION-MESI directory tile, or (SystemKind::Auto) the
 * orchestrator, which builds SCRATCH, FUSION and FUSION-Dx and
 * picks one per invocation.
 *
 * System::run() executes a whole captured Program: the host writes
 * the inputs, the accelerated invocations run in program order
 * (sequential-program offload semantics, Section 1), and the host
 * consumes the outputs — which is what generates the host-tile
 * forwarded requests of Table 6.
 */

#ifndef FUSION_CORE_SYSTEM_HH
#define FUSION_CORE_SYSTEM_HH

#include <memory>
#include <vector>

#include "accel/replay_core.hh"
#include "accel/tile.hh"
#include "accel/tile_frontend.hh"
#include "core/host_tile.hh"
#include "core/results.hh"
#include "core/system_config.hh"
#include "trace/analysis.hh"
#include "trace/trace.hh"
#include "vm/page_table.hh"

namespace fusion::core
{

/** A fully assembled simulated system bound to one Program. */
class System
{
  public:
    System(const SystemConfig &cfg, const trace::Program &prog);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run the whole program to completion and collect results. */
    RunResult run();

    /** Simulation services (tests poke at stats/energy). */
    SimContext &ctx() { return _ctx; }
    /** The FUSION tiles of a static FUSION or FUSION-Dx system
     *  (empty for every other kind). */
    std::vector<std::unique_ptr<accel::FusionTile>> &tiles()
    {
        auto *ts = _frontend->fusionTiles();
        return ts ? *ts : _noTiles;
    }

  private:
    void runInvocation(std::size_t idx, sim::SmallFn<void()> then);
    /** Dependence-driven overlapped execution (cached systems). */
    void runOverlapped(sim::SmallFn<void()> then);
    void pumpOverlap();
    void launchInvocation(std::size_t idx,
                          sim::SmallFn<void()> completion);
    /** Self-rescheduling interval-metrics sampler (telemetry). */
    void scheduleSample(Tick interval);
    void collect(RunResult &r) const;

    SystemConfig _cfg;
    const trace::Program &_prog;
    /// Declared before every component: _ctx.stats points at their
    /// counter members, so the components must be destroyed first.
    SimContext _ctx;
    vm::PageTable _pt;
    /// Distinct lines the invocations touch (workingSetBytes).
    std::uint64_t _footprintLines = 0;

    // The constructor builds these in declaration order, after the
    // guard and telemetry are armed; the order fixes the stats,
    // ledger and guard registration order the goldens pin.
    std::unique_ptr<HostTile> _host;
    /// Accelerator cores (all organizations).
    std::vector<std::unique_ptr<accel::ReplayCore>> _cores;
    /// The accelerator side behind the uniform frontend interface:
    /// the static kind's organization, or AUTO's orchestrator.
    std::unique_ptr<accel::TileFrontend> _frontend;
    /// Empty fallback so tiles() can return a reference.
    std::vector<std::unique_ptr<accel::FusionTile>> _noTiles;

    // Telemetry (null/zero when tracing is off).
    obs::SpanTracer *_obsTracer = nullptr;
    std::uint32_t _obsTrack = 0;

    // Overlap scheduling state.
    std::uint64_t _overlapLaunches = 0; ///< "scheduler.overlap_launches"
    std::vector<std::vector<std::uint32_t>> _invDeps;
    std::vector<bool> _invDone;
    std::vector<bool> _invLaunched;
    std::vector<bool> _accelBusy;
    std::size_t _invRemaining = 0;
    sim::SmallFn<void()> _overlapThen;

    // Phase bookkeeping.
    Tick _accelStart = 0;
    Tick _accelEnd = 0;
    std::map<std::string, std::uint64_t> _funcCycles;
    std::map<std::string, double> _funcEnergyPj;
    std::vector<std::uint64_t> _invCycles;
};

} // namespace fusion::core

#endif // FUSION_CORE_SYSTEM_HH
