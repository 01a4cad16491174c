/**
 * @file
 * Randomized fault-injection campaigns over the sweep pool.
 *
 * A campaign runs N seeded trials; each trial picks a system kind, a
 * workload and a random multi-fault FaultSchedule, simulates it with
 * the watchdog + invariant checkers armed, and triages the outcome
 * against a clean (fault-free) golden run of the same job:
 *
 *  - Benign:           run completed, output byte-identical;
 *  - Perturbed:        run completed, output differs, but every
 *                      fired fault only perturbs timing (delays /
 *                      reordering on legal paths) — expected;
 *  - Detected:         a typed SimError (assertion, deadlock,
 *                      no-progress, invariant) surfaced the fault;
 *  - Hang:             only the campaign's cycle-budget backstop
 *                      ended the run;
 *  - SilentDivergence: run completed but the FNV-1a output hash
 *                      differs with a state-corrupting fault fired —
 *                      the checkers missed real corruption;
 *  - Crash:            an internal (untyped) panic escaped.
 *
 * Every SilentDivergence class a campaign surfaces is a missing
 * invariant checker: the fix is a new checker registered by the
 * offending component, not a triage tweak.
 *
 * The delta-debugging shrinker reduces a failing trial to a minimal
 * reproducer: it first drops the input scale, then greedily removes
 * schedule entries while the outcome class still reproduces, and
 * prints a one-line fault_campaign command that replays the result.
 */

#ifndef FUSION_SIM_GUARD_CAMPAIGN_HH
#define FUSION_SIM_GUARD_CAMPAIGN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/results.hh"
#include "core/system_config.hh"
#include "sim/guard/guard_config.hh"
#include "workloads/workload.hh"

namespace fusion::guard
{

/** Triage classes for one campaign trial. */
enum class TrialOutcome : std::uint8_t
{
    Benign,
    Perturbed,
    Detected,
    Hang,
    SilentDivergence,
    Crash,
};

/** Stable lowercase name ("benign", "silent-divergence", ...). */
const char *trialOutcomeName(TrialOutcome outcome);

/** Campaign parameters. */
struct CampaignConfig
{
    /** Master seed: trial schedules are derived deterministically. */
    std::uint64_t seed = 1;
    /** Number of randomized trials. */
    std::size_t trials = 16;
    /** Systems drawn from (default: all five static kinds). */
    std::vector<core::SystemKind> systems;
    /** Workloads drawn from (default: adpcm). */
    std::vector<std::string> workloads;
    workloads::Scale scale = workloads::Scale::Small;
    /** Worker threads for the underlying sweeps. */
    std::size_t jobs = 1;
    /** Max armed faults per trial schedule (>= 1). */
    std::size_t maxFaults = 3;
    /** Fault kinds drawn from (default: every injectable kind). */
    std::vector<FaultKind> faultPool;
};

/** One triaged trial. */
struct TrialResult
{
    std::size_t index = 0;
    core::SystemKind system = core::SystemKind::Fusion;
    std::string workload;
    FaultSchedule schedule;
    TrialOutcome outcome = TrialOutcome::Benign;
    /** Schedule entries that actually fired. */
    std::uint32_t faultsFired = 0;
    /** Bitmask (1 << FaultKind) of kinds that fired. */
    std::uint32_t firedMask = 0;
    /** Error category/component name when the run failed. */
    std::string errorCategory;
    std::string errorComponent;
    std::uint64_t cleanHash = 0;
    std::uint64_t resultHash = 0;
};

/** Per-fault-kind triage counts for the detection-rate table. */
struct KindStats
{
    FaultKind kind = FaultKind::None;
    std::uint64_t armedTrials = 0;
    std::uint64_t firedTrials = 0;
    std::uint64_t detected = 0;
    std::uint64_t hang = 0;
    std::uint64_t silent = 0;
    std::uint64_t crash = 0;
    std::uint64_t benign = 0;
    std::uint64_t perturbed = 0;

    /** detected / (fired trials that needed detection). */
    double detectionRate() const;
};

/** A completed campaign. */
struct CampaignReport
{
    std::uint64_t seed = 0;
    std::vector<TrialResult> trials;
    /** Per-kind table, in FaultKind order, armed kinds only. */
    std::vector<KindStats> kinds;

    std::size_t countOutcome(TrialOutcome outcome) const;
    /** No silent divergence and no crash. */
    bool clean() const;
    /**
     * The trial most worth shrinking: the lowest-index trial of the
     * most severe failing class (silent divergence, then crash, hang,
     * detected); null when every trial is benign or perturbed.
     */
    const TrialResult *shrinkTarget() const;
    /** Render an aligned per-kind detection-rate table. */
    std::string renderTable() const;
    /** Full JSON report (trials + per-kind table + summary). */
    std::string toJson() const;
};

/** Run a campaign. Deterministic for a fixed config. */
CampaignReport runCampaign(const CampaignConfig &cfg);

/**
 * Run one (system, workload, scale, schedule) trial: a clean golden
 * run followed by the injected run, triaged as above. The campaign,
 * the shrinker and fault_campaign --repro all share this path, so a
 * printed reproducer replays the exact campaign behaviour.
 */
TrialResult runTrial(core::SystemKind system,
                     const std::string &workload,
                     workloads::Scale scale,
                     const FaultSchedule &schedule);

/** A minimized failing trial plus its reproducer command line. */
struct ShrinkResult
{
    core::SystemKind system = core::SystemKind::Fusion;
    std::string workload;
    workloads::Scale scale = workloads::Scale::Small;
    FaultSchedule schedule;
    TrialOutcome outcome = TrialOutcome::Benign;
    /** Trials executed while shrinking. */
    std::size_t probes = 0;
    /** One-line fault_campaign --repro invocation. */
    std::string reproCommand;
};

/**
 * Delta-debug a failing trial down to a minimal repro: drop the
 * input scale if the outcome still reproduces, then remove schedule
 * entries one at a time until the schedule is 1-minimal. Returns
 * nullopt when the trial's outcome never needed shrinking (Benign /
 * Perturbed trials have nothing to reproduce).
 */
std::optional<ShrinkResult> shrinkTrial(const TrialResult &trial,
                                        workloads::Scale scale);

} // namespace fusion::guard

#endif // FUSION_SIM_GUARD_CAMPAIGN_HH
