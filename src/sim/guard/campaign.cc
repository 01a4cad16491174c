/**
 * @file
 * Fault-injection campaign engine: seeded trial generation, golden
 * hashing, outcome triage, the per-kind detection table, and the
 * delta-debugging repro shrinker.
 */

#include "sim/guard/campaign.hh"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

#include "core/runner.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sweep/sweep.hh"

namespace fusion::guard
{

namespace
{

/** Injectable kinds a campaign draws from by default. */
const std::vector<FaultKind> &
defaultFaultPool()
{
    static const std::vector<FaultKind> pool{
        FaultKind::LeakMshr,    FaultKind::DropWriteback,
        FaultKind::DelayGrant,  FaultKind::CorruptLease,
        FaultKind::DropFlit,    FaultKind::DupFlit,
        FaultKind::ReorderFlit, FaultKind::TruncateDma,
        FaultKind::StallDma,    FaultKind::CorruptDir,
        FaultKind::StaleHostL1,
    };
    return pool;
}

/** Stir two 64-bit values (SplitMix-style avalanche). */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Watchdog settings for injected runs: frequent invariant sweeps so
 * corruption is caught near its cause, a no-progress tripwire, and a
 * hard cycle budget scaled off the clean run so true hangs end in a
 * CycleBudget trip instead of wedging the campaign. Wall-clock stays
 * off — it is nondeterministic under sanitizers.
 */
GuardConfig
trialGuard(Tick clean_cycles)
{
    GuardConfig g;
    g.invariantPeriod = 64;
    g.invariantsAtEnd = true;
    g.noProgressTicks = 1u << 18;
    g.maxCycles = clean_cycles * 32 + (1u << 16);
    return g;
}

/** Draw one trial's random schedule from the trial stream. */
FaultSchedule
drawSchedule(Rng &rng, const CampaignConfig &cfg,
             const std::vector<FaultKind> &pool)
{
    FaultSchedule s;
    std::size_t max_faults = std::max<std::size_t>(1, cfg.maxFaults);
    std::size_t n = 1 + rng.below(max_faults);
    for (std::size_t i = 0; i < n; ++i) {
        ArmedFault f;
        f.kind = pool[rng.below(pool.size())];
        f.triggerAfter = rng.below(32);
        // Delays span several invariant periods so delayed effects
        // (inflated leases, stalled completions) stay observable.
        f.delay = static_cast<Cycles>(256 + rng.below(2048));
        f.probability = rng.below(4) == 0 ? 0.5 : 1.0;
        s.faults.push_back(f);
    }
    s.seed = rng.next() | 1;
    return s;
}

/** True when every fired kind in @p mask only perturbs timing. */
bool
maskTimingOnly(std::uint32_t mask)
{
    for (std::size_t k = 0; k < kFaultKindCount; ++k) {
        if (!(mask & (1u << k)))
            continue;
        if (!faultPerturbsTimingOnly(static_cast<FaultKind>(k)))
            return false;
    }
    return true;
}

/** Classify one finished injected run against its golden hash. */
TrialOutcome
triage(const core::RunResult &r, std::uint64_t clean_hash,
       std::uint64_t result_hash)
{
    if (r.failed()) {
        switch (r.error->category) {
          case ErrorCategory::CycleBudget:
          case ErrorCategory::WallClock:
            return TrialOutcome::Hang;
          case ErrorCategory::Internal:
            return TrialOutcome::Crash;
          default:
            return TrialOutcome::Detected;
        }
    }
    if (result_hash == clean_hash)
        return TrialOutcome::Benign;
    if (r.faultFiredMask != 0 && maskTimingOnly(r.faultFiredMask))
        return TrialOutcome::Perturbed;
    return TrialOutcome::SilentDivergence;
}

/** Shared per-(system, workload, scale) golden-run info. */
struct CleanRun
{
    std::uint64_t hash = 0;
    Tick totalCycles = 0;
};

TrialResult
finishTrial(TrialResult t, const core::RunResult &r,
            const CleanRun &clean)
{
    t.cleanHash = clean.hash;
    t.faultsFired = r.faultsFired;
    t.firedMask = r.faultFiredMask;
    if (r.failed()) {
        t.errorCategory = errorCategoryName(r.error->category);
        t.errorComponent = r.error->component;
    } else {
        t.resultHash = fnv1a(r.toJson());
    }
    t.outcome = triage(r, clean.hash, t.resultHash);
    return t;
}

std::string
scaleFlag(workloads::Scale scale)
{
    return scale == workloads::Scale::Small ? "--small" : "--paper";
}

std::string
reproCommand(core::SystemKind system, const std::string &workload,
             workloads::Scale scale, const FaultSchedule &schedule)
{
    std::ostringstream os;
    os << "fault_campaign --repro --system "
       << core::systemKindCliName(system) << " --workload "
       << workload << ' ' << scaleFlag(scale) << " --fault-seed "
       << schedule.seed;
    for (const ArmedFault &f : schedule.faults)
        os << " --fault " << faultSpec(f);
    return os.str();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

const char *
trialOutcomeName(TrialOutcome outcome)
{
    switch (outcome) {
      case TrialOutcome::Benign: return "benign";
      case TrialOutcome::Perturbed: return "perturbed";
      case TrialOutcome::Detected: return "detected";
      case TrialOutcome::Hang: return "hang";
      case TrialOutcome::SilentDivergence: return "silent-divergence";
      case TrialOutcome::Crash: return "crash";
    }
    return "unknown";
}

double
KindStats::detectionRate() const
{
    // Benign / perturbed firings needed no detection; of the rest,
    // how many were caught by a typed error?
    std::uint64_t needing = detected + hang + silent + crash;
    if (needing == 0)
        return 1.0;
    return static_cast<double>(detected) /
           static_cast<double>(needing);
}

std::size_t
CampaignReport::countOutcome(TrialOutcome outcome) const
{
    std::size_t n = 0;
    for (const TrialResult &t : trials)
        if (t.outcome == outcome)
            ++n;
    return n;
}

bool
CampaignReport::clean() const
{
    return countOutcome(TrialOutcome::SilentDivergence) == 0 &&
           countOutcome(TrialOutcome::Crash) == 0;
}

const TrialResult *
CampaignReport::shrinkTarget() const
{
    for (TrialOutcome o :
         {TrialOutcome::SilentDivergence, TrialOutcome::Crash,
          TrialOutcome::Hang, TrialOutcome::Detected}) {
        const TrialResult *best = nullptr;
        for (const TrialResult &t : trials)
            if (t.outcome == o && (!best || t.index < best->index))
                best = &t;
        if (best)
            return best;
    }
    return nullptr;
}

std::string
CampaignReport::renderTable() const
{
    std::ostringstream os;
    os << std::left << std::setw(15) << "fault kind" << std::right
       << std::setw(7) << "armed" << std::setw(7) << "fired"
       << std::setw(9) << "detect" << std::setw(6) << "hang"
       << std::setw(8) << "silent" << std::setw(7) << "crash"
       << std::setw(8) << "benign" << std::setw(9) << "perturb"
       << std::setw(8) << "rate" << '\n';
    for (const KindStats &k : kinds) {
        os << std::left << std::setw(15) << faultKindName(k.kind)
           << std::right << std::setw(7) << k.armedTrials
           << std::setw(7) << k.firedTrials << std::setw(9)
           << k.detected << std::setw(6) << k.hang << std::setw(8)
           << k.silent << std::setw(7) << k.crash << std::setw(8)
           << k.benign << std::setw(9) << k.perturbed
           << std::setw(8) << std::fixed << std::setprecision(2)
           << k.detectionRate() << '\n';
    }
    return os.str();
}

std::string
CampaignReport::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"seed\": " << seed << ",\n  \"trials\": [\n";
    for (std::size_t i = 0; i < trials.size(); ++i) {
        const TrialResult &t = trials[i];
        os << "    {\"index\": " << t.index << ", \"system\": \""
           << core::systemKindCliName(t.system)
           << "\", \"workload\": \"" << t.workload
           << "\", \"outcome\": \"" << trialOutcomeName(t.outcome)
           << "\", \"faults\": [";
        for (std::size_t f = 0; f < t.schedule.faults.size(); ++f) {
            os << (f ? ", " : "") << '"'
               << faultSpec(t.schedule.faults[f]) << '"';
        }
        os << "], \"faultSeed\": " << t.schedule.seed
           << ", \"faultsFired\": " << t.faultsFired;
        if (!t.errorCategory.empty()) {
            os << ", \"errorCategory\": \"" << t.errorCategory
               << "\", \"errorComponent\": \""
               << jsonEscape(t.errorComponent) << '"';
        }
        os << '}' << (i + 1 < trials.size() ? "," : "") << '\n';
    }
    os << "  ],\n  \"kinds\": [\n";
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        const KindStats &k = kinds[i];
        os << "    {\"kind\": \"" << faultKindName(k.kind)
           << "\", \"armedTrials\": " << k.armedTrials
           << ", \"firedTrials\": " << k.firedTrials
           << ", \"detected\": " << k.detected
           << ", \"hang\": " << k.hang << ", \"silent\": " << k.silent
           << ", \"crash\": " << k.crash
           << ", \"benign\": " << k.benign
           << ", \"perturbed\": " << k.perturbed
           << ", \"detectionRate\": " << std::fixed
           << std::setprecision(4) << k.detectionRate() << '}'
           << (i + 1 < kinds.size() ? "," : "") << '\n';
    }
    os << "  ],\n  \"summary\": {";
    const TrialOutcome all[] = {
        TrialOutcome::Benign,    TrialOutcome::Perturbed,
        TrialOutcome::Detected,  TrialOutcome::Hang,
        TrialOutcome::SilentDivergence, TrialOutcome::Crash};
    for (std::size_t i = 0; i < std::size(all); ++i) {
        os << (i ? ", " : "") << '"' << trialOutcomeName(all[i])
           << "\": " << countOutcome(all[i]);
    }
    os << ", \"clean\": " << (clean() ? "true" : "false")
       << "}\n}\n";
    return os.str();
}

TrialResult
runTrial(core::SystemKind system, const std::string &workload,
         workloads::Scale scale, const FaultSchedule &schedule)
{
    auto prog = core::buildProgram(workload, scale);
    if (!prog)
        fusion_fatal(core::unknownWorkloadMessage(workload));

    core::SystemConfig clean_cfg = core::SystemConfig::preset(
        core::SystemConfig::Preset::Paper, system);
    core::RunResult clean_r = core::runProgram(clean_cfg, *prog);
    fusion_assert(!clean_r.failed(),
                  "clean golden run failed for ", workload);
    CleanRun clean{fnv1a(clean_r.toJson()), clean_r.totalCycles};

    core::SystemConfig cfg = clean_cfg;
    cfg.guard = trialGuard(clean.totalCycles);
    cfg.guard.schedule = schedule;
    core::RunResult r = core::runProgram(cfg, *prog);

    TrialResult t;
    t.system = system;
    t.workload = workload;
    t.schedule = schedule;
    return finishTrial(std::move(t), r, clean);
}

CampaignReport
runCampaign(const CampaignConfig &cfg)
{
    const std::vector<core::SystemKind> systems =
        cfg.systems.empty()
            ? std::vector<core::SystemKind>(
                  std::begin(core::kStaticSystemKinds),
                  std::end(core::kStaticSystemKinds))
            : cfg.systems;
    const std::vector<std::string> workload_pool =
        cfg.workloads.empty() ? std::vector<std::string>{"adpcm"}
                              : cfg.workloads;
    const std::vector<FaultKind> &pool =
        cfg.faultPool.empty() ? defaultFaultPool() : cfg.faultPool;

    // Draw every trial up front so trial i's schedule only depends
    // on (seed, i), never on worker interleaving.
    std::vector<TrialResult> trials(cfg.trials);
    for (std::size_t i = 0; i < cfg.trials; ++i) {
        Rng rng(mix(cfg.seed, i));
        TrialResult &t = trials[i];
        t.index = i;
        t.system = systems[rng.below(systems.size())];
        t.workload = workload_pool[rng.below(workload_pool.size())];
        t.schedule = drawSchedule(rng, cfg, pool);
    }

    // Golden pass: one clean run per distinct (system, workload),
    // hashed for divergence triage and timed for the hang backstop.
    std::map<std::pair<int, std::string>, CleanRun> golden;
    std::vector<sweep::SweepJob> clean_jobs;
    for (const TrialResult &t : trials) {
        auto key = std::make_pair(static_cast<int>(t.system),
                                  t.workload);
        if (golden.count(key))
            continue;
        golden.emplace(key, CleanRun{});
        sweep::SweepJob j;
        j.cfg = core::SystemConfig::preset(
            core::SystemConfig::Preset::Paper, t.system);
        j.workload = t.workload;
        j.scale = cfg.scale;
        j.tag = std::string("clean/") +
                core::systemKindCliName(t.system) + "/" + t.workload;
        clean_jobs.push_back(std::move(j));
    }
    sweep::SweepOptions opt;
    opt.jobs = cfg.jobs;
    std::vector<core::RunResult> clean_results =
        sweep::runSweep(clean_jobs, opt);
    for (std::size_t i = 0; i < clean_jobs.size(); ++i) {
        fusion_assert(!clean_results[i].failed(),
                      "clean golden run failed: ",
                      clean_jobs[i].tag);
        auto key = std::make_pair(
            static_cast<int>(clean_jobs[i].cfg.kind),
            clean_jobs[i].workload);
        golden[key] = CleanRun{fnv1a(clean_results[i].toJson()),
                               clean_results[i].totalCycles};
    }

    // Injected pass: every trial on the fault-isolated sweep pool.
    std::vector<sweep::SweepJob> jobs;
    jobs.reserve(trials.size());
    for (const TrialResult &t : trials) {
        const CleanRun &clean = golden.at(std::make_pair(
            static_cast<int>(t.system), t.workload));
        sweep::SweepJob j;
        j.cfg = core::SystemConfig::preset(
            core::SystemConfig::Preset::Paper, t.system);
        j.cfg.guard = trialGuard(clean.totalCycles);
        j.cfg.guard.schedule = t.schedule;
        j.workload = t.workload;
        j.scale = cfg.scale;
        j.tag = "trial " + std::to_string(t.index);
        jobs.push_back(std::move(j));
    }
    std::vector<core::RunResult> results =
        sweep::runSweep(jobs, opt);

    CampaignReport report;
    report.seed = cfg.seed;
    report.trials.reserve(trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
        const CleanRun &clean = golden.at(std::make_pair(
            static_cast<int>(trials[i].system), trials[i].workload));
        report.trials.push_back(
            finishTrial(std::move(trials[i]), results[i], clean));
    }

    // Per-kind table over the kinds any trial armed.
    std::map<FaultKind, KindStats> stats;
    for (const TrialResult &t : report.trials) {
        std::uint32_t armed = 0;
        for (const ArmedFault &f : t.schedule.faults)
            armed |= 1u << static_cast<unsigned>(f.kind);
        for (std::size_t k = 0; k < kFaultKindCount; ++k) {
            if (!(armed & (1u << k)))
                continue;
            KindStats &ks = stats[static_cast<FaultKind>(k)];
            ks.kind = static_cast<FaultKind>(k);
            ++ks.armedTrials;
            if (!(t.firedMask & (1u << k)))
                continue;
            ++ks.firedTrials;
            switch (t.outcome) {
              case TrialOutcome::Benign: ++ks.benign; break;
              case TrialOutcome::Perturbed: ++ks.perturbed; break;
              case TrialOutcome::Detected: ++ks.detected; break;
              case TrialOutcome::Hang: ++ks.hang; break;
              case TrialOutcome::SilentDivergence:
                ++ks.silent;
                break;
              case TrialOutcome::Crash: ++ks.crash; break;
            }
        }
    }
    for (auto &[kind, ks] : stats)
        report.kinds.push_back(ks);
    return report;
}

std::optional<ShrinkResult>
shrinkTrial(const TrialResult &trial, workloads::Scale scale)
{
    if (trial.outcome == TrialOutcome::Benign ||
        trial.outcome == TrialOutcome::Perturbed)
        return std::nullopt;

    ShrinkResult out;
    out.system = trial.system;
    out.workload = trial.workload;
    out.scale = scale;
    out.schedule = trial.schedule;
    out.outcome = trial.outcome;

    auto reproduces = [&](workloads::Scale s,
                          const FaultSchedule &sched) {
        ++out.probes;
        TrialResult t =
            runTrial(trial.system, trial.workload, s, sched);
        return t.outcome == trial.outcome;
    };

    // Phase 1: shrink the input. A Small repro simulates orders of
    // magnitude faster than Paper scale.
    if (out.scale != workloads::Scale::Small &&
        reproduces(workloads::Scale::Small, out.schedule)) {
        out.scale = workloads::Scale::Small;
    } else if (out.scale != workloads::Scale::Small) {
        // Confirm the original still reproduces at its own scale
        // (guards against a stale TrialResult).
        if (!reproduces(out.scale, out.schedule))
            return std::nullopt;
    }

    // Phase 2: ddmin over the schedule — greedy one-at-a-time
    // removal, restarted until a fixed point, yields a 1-minimal
    // fault list (removing any single entry changes the outcome).
    bool shrunk = true;
    while (shrunk && out.schedule.faults.size() > 1) {
        shrunk = false;
        for (std::size_t i = out.schedule.faults.size(); i-- > 0;) {
            FaultSchedule candidate = out.schedule;
            candidate.faults.erase(candidate.faults.begin() +
                                   static_cast<std::ptrdiff_t>(i));
            if (reproduces(out.scale, candidate)) {
                out.schedule = std::move(candidate);
                shrunk = true;
                break;
            }
        }
    }

    out.reproCommand = reproCommand(out.system, out.workload,
                                    out.scale, out.schedule);
    return out;
}

} // namespace fusion::guard
