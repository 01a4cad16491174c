/**
 * @file
 * TileFrontend: one uniform interface over the four accelerator-side
 * organizations the paper compares (SCRATCH scratchpads + oracle
 * DMA, the SHARED MESI L1X, the FUSION ACC tile, and the
 * FUSION-MESI directory tile).
 *
 * A frontend owns its organization's components, launches
 * invocations on it, and reports its counters, so no consumer of
 * "the accelerator side" (core::System, the AUTO-mode orchestrator,
 * tests) enumerates the kinds.
 *
 * A System holds exactly one frontend. For a static SystemKind it is
 * that kind's organization. Its construction order fixes the order
 * of stats, energy components, guard registrations and event timing,
 * and therefore the serialized RunResult, which
 * tests/test_frontend_equivalence.cc pins against golden hashes. For
 * SystemKind::Auto it is orch::Orchestrator, itself a frontend,
 * which builds the SCRATCH, FUSION and FUSION-Dx frontends and
 * activates one per invocation; the same-named stats entries of its
 * two FUSION tiles merge into aggregate counters.
 */

#ifndef FUSION_ACCEL_TILE_FRONTEND_HH
#define FUSION_ACCEL_TILE_FRONTEND_HH

#include <memory>
#include <vector>

#include "accel/replay_core.hh"
#include "accel/tile.hh"
#include "core/results.hh"
#include "core/system_config.hh"
#include "host/llc.hh"
#include "sim/small_fn.hh"
#include "trace/analysis.hh"
#include "trace/trace.hh"
#include "vm/page_table.hh"

namespace fusion::accel
{

/** Everything a frontend needs to assemble its organization. */
struct FrontendEnv
{
    SimContext &ctx;
    const core::SystemConfig &cfg;
    const trace::Program &prog;
    host::Llc &llc;
    const vm::PageTable &pt;
    /** max(1, prog.accelCount()) — one core/L0X/SPM per accel. */
    std::uint32_t numAccels;
};

/**
 * Cache counter snapshot AUTO's orchestrator differences across an
 * invocation (its L0X miss-rate estimate).
 */
struct FrontendCounters
{
    std::uint64_t l0xHits = 0;
    std::uint64_t l0xMisses = 0;
    std::uint64_t l1xHits = 0;
    std::uint64_t l1xMisses = 0;
};

/** One accelerator-side organization behind a uniform interface. */
class TileFrontend
{
  public:
    explicit TileFrontend(core::SystemKind kind) : _kind(kind) {}
    virtual ~TileFrontend() = default;

    TileFrontend(const TileFrontend &) = delete;
    TileFrontend &operator=(const TileFrontend &) = delete;

    /** The static organization this frontend implements. */
    core::SystemKind kind() const { return _kind; }

    /**
     * Run invocation @p idx of the bound program on @p core through
     * this organization's memory port; @p done fires when the
     * invocation — including any frontend epilogue such as FUSION's
     * end-of-invocation forwarding — has completed.
     */
    virtual void launch(std::size_t idx, ReplayCore &core,
                        sim::SmallFn<void()> done) = 0;

    /** Whether data-independent invocations may overlap (SCRATCH
     *  cannot: one DMA engine serializes the windows). */
    virtual bool supportsOverlap() const { return true; }

    /**
     * Orchestrator hook, run when AUTO switches away from this
     * frontend: flush whatever protocol state the organization can
     * flush (FUSION drains dirty L0X lines; the LLC directory keeps
     * the rest coherent across frontends).
     */
    virtual void deactivate() {}

    /** Current counter totals (monotonic; snapshot + difference),
     *  read only by AUTO. Zero for an organization without caches
     *  (SCRATCH). */
    virtual FrontendCounters counters() const { return {}; }

    /**
     * Accumulate this organization's counters into @p r. Additive
     * on purpose: under AUTO each of the orchestrator's frontends
     * reports into the same RunResult.
     */
    virtual void collect(core::RunResult &r) const = 0;

    /** The FUSION tile set, or null (System::tiles() accessor). */
    virtual std::vector<std::unique_ptr<FusionTile>> *fusionTiles()
    {
        return nullptr;
    }

  private:
    core::SystemKind _kind;
};

/**
 * Construct the frontend for one *static* @p kind (panics on
 * SystemKind::Auto, whose frontend is orch::Orchestrator).
 * FUSION-Dx forwards along @p plan when one is given (AUTO passes
 * the plan its rule reads), else along trace::planForwarding.
 */
std::unique_ptr<TileFrontend>
makeTileFrontend(core::SystemKind kind, const FrontendEnv &env,
                 const trace::ForwardPlan *plan = nullptr);

} // namespace fusion::accel

#endif // FUSION_ACCEL_TILE_FRONTEND_HH
