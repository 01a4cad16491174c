/**
 * @file
 * Randomized fault-injection campaign driver (docs/HARDENING.md).
 *
 * Default mode runs a seeded campaign over the sweep pool: every
 * trial arms a random multi-fault schedule on a random (system,
 * workload) pair, triages the outcome against a clean golden run,
 * and the driver prints the per-kind detection-rate table. The exit
 * status is 2 unless the campaign is clean (no silent divergence, no
 * crash), so a ctest entry doubles as a detection regression gate.
 *
 *   fault_campaign --small --trials 32 --seed 7 --jobs 4
 *
 * --shrink additionally delta-debugs the most severe failing trial
 * (CampaignReport::shrinkTarget) down to a minimal schedule and
 * prints a one-line reproducer.
 *
 * --repro replays a single trial from the shared --fault /
 * --fault-seed flags (this is the command line the shrinker prints):
 *
 *   fault_campaign --repro --system fusion --workload adpcm --small \
 *       --fault-seed 9 --fault corrupt-dir:4:512
 */

#include "bench_util.hh"

#include "sim/guard/campaign.hh"

namespace
{

void
localUsage(const char *argv0)
{
    fusion::bench::usage(argv0);
    std::printf(
        "campaign options:\n"
        "  --trials N      randomized trials (default 16)\n"
        "  --seed N        campaign master seed (default 1)\n"
        "  --max-faults N  max armed faults per trial (default 3)\n"
        "  --workload W    workload pool entry (repeatable; "
        "default adpcm)\n"
        "  --shrink        delta-debug the most severe failing trial "
        "and print a reproducer\n"
        "  --repro         replay one trial from --fault/--fault-seed "
        "instead of a campaign\n");
}

void
printTrial(const fusion::guard::TrialResult &t)
{
    namespace guard = fusion::guard;
    std::printf("system:    %s\nworkload:  %s\noutcome:   %s\n",
                fusion::core::systemKindCliName(t.system),
                t.workload.c_str(),
                guard::trialOutcomeName(t.outcome));
    std::printf("schedule:  seed=%llu",
                static_cast<unsigned long long>(t.schedule.seed));
    for (const auto &f : t.schedule.faults)
        std::printf(" %s", guard::faultSpec(f).c_str());
    std::printf("\nfired:     %u fault(s), kind mask 0x%x\n",
                t.faultsFired, t.firedMask);
    if (!t.errorCategory.empty())
        std::printf("error:     %s (%s)\n", t.errorCategory.c_str(),
                    t.errorComponent.c_str());
    std::printf("hash:      clean=%016llx result=%016llx\n",
                static_cast<unsigned long long>(t.cleanHash),
                static_cast<unsigned long long>(t.resultHash));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fusion;

    std::vector<std::string> extra;
    bench::Options opt = bench::parseArgs(argc, argv, &extra);

    guard::CampaignConfig cc;
    cc.systems = opt.systems;
    cc.scale = opt.scale;
    cc.jobs = opt.jobs;
    bool repro = false;
    bool shrink = false;
    for (std::size_t i = 0; i < extra.size(); ++i) {
        const std::string &a = extra[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= extra.size()) {
                localUsage(argv[0]);
                fusion_fatal("missing value for ", a);
            }
            return extra[++i];
        };
        if (a == "--trials") {
            cc.trials = std::strtoull(next().c_str(), nullptr, 10);
        } else if (a == "--seed") {
            cc.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (a == "--max-faults") {
            cc.maxFaults =
                std::strtoull(next().c_str(), nullptr, 10);
            if (cc.maxFaults < 1) {
                localUsage(argv[0]);
                fusion_fatal("--max-faults must be >= 1");
            }
        } else if (a == "--workload") {
            cc.workloads.push_back(next());
        } else if (a == "--shrink") {
            shrink = true;
        } else if (a == "--repro") {
            repro = true;
        } else {
            localUsage(argv[0]);
            fusion_fatal("unknown option: ", a);
        }
    }

    if (repro) {
        if (opt.faults.empty())
            fusion_fatal("--repro needs at least one --fault spec");
        core::SystemKind kind =
            bench::kindOrDefault(opt, core::SystemKind::Fusion);
        std::string w =
            cc.workloads.empty() ? "adpcm" : cc.workloads.front();
        guard::TrialResult t =
            guard::runTrial(kind, w, opt.scale, opt.faults);
        printTrial(t);
        return 0;
    }
    if (!opt.faults.empty())
        fusion_fatal("--fault only applies to --repro mode; "
                     "campaign trials draw their own schedules");

    bench::banner("fault-injection campaign",
                  "hardening layer detection coverage "
                  "(docs/HARDENING.md)");
    guard::CampaignReport report = guard::runCampaign(cc);
    std::printf("%s\n", report.renderTable().c_str());
    std::printf(
        "trials: %zu  benign: %zu  perturbed: %zu  detected: %zu  "
        "hang: %zu  silent: %zu  crash: %zu\n",
        report.trials.size(),
        report.countOutcome(guard::TrialOutcome::Benign),
        report.countOutcome(guard::TrialOutcome::Perturbed),
        report.countOutcome(guard::TrialOutcome::Detected),
        report.countOutcome(guard::TrialOutcome::Hang),
        report.countOutcome(guard::TrialOutcome::SilentDivergence),
        report.countOutcome(guard::TrialOutcome::Crash));

    if (!opt.jsonPath.empty()) {
        std::ofstream out(opt.jsonPath);
        if (!out)
            fusion_fatal("cannot open campaign report file ",
                         opt.jsonPath);
        out << report.toJson();
        std::fprintf(stderr, "campaign report written to %s\n",
                     opt.jsonPath.c_str());
    }

    if (shrink) {
        const guard::TrialResult *victim = report.shrinkTarget();
        if (!victim) {
            std::printf("\nshrink: no failing trial to minimize\n");
        } else if (auto s = guard::shrinkTrial(*victim, cc.scale)) {
            std::printf("\nshrunk trial %zu (%s) to %zu fault(s) in "
                        "%zu probe(s):\n  %s\n",
                        victim->index,
                        guard::trialOutcomeName(victim->outcome),
                        s->schedule.faults.size(), s->probes,
                        s->reproCommand.c_str());
        } else {
            std::printf("\nshrink: trial %zu did not reproduce\n",
                        victim->index);
        }
    }

    if (!report.clean()) {
        std::fprintf(stderr,
                     "campaign NOT clean: %zu silent-divergence, "
                     "%zu crash trial(s)\n",
                     report.countOutcome(
                         guard::TrialOutcome::SilentDivergence),
                     report.countOutcome(
                         guard::TrialOutcome::Crash));
        return 2;
    }
    return 0;
}
