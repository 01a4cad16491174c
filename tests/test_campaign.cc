/**
 * @file
 * Tests for the fault-injection campaign engine: seeded trial
 * determinism, outcome triage, the per-kind detection-rate report,
 * and the delta-debugging repro shrinker.
 */

#include <gtest/gtest.h>

#include "sim/guard/campaign.hh"

namespace fusion::guard
{
namespace
{

CampaignConfig
tinyCampaign()
{
    CampaignConfig cc;
    cc.seed = 7;
    cc.trials = 6;
    cc.jobs = 2;
    cc.scale = workloads::Scale::Small;
    return cc;
}

TEST(Campaign, FixedSeedIsDeterministic)
{
    CampaignReport a = runCampaign(tinyCampaign());
    CampaignReport b = runCampaign(tinyCampaign());
    ASSERT_EQ(a.trials.size(), 6u);
    EXPECT_EQ(a.toJson(), b.toJson());
    // Schedules actually vary across trials (the point of the
    // randomization): not every trial armed the same first kind.
    bool varied = false;
    for (const auto &t : a.trials)
        if (t.schedule.faults.size() !=
                a.trials.front().schedule.faults.size() ||
            t.schedule.faults.front().kind !=
                a.trials.front().schedule.faults.front().kind)
            varied = true;
    EXPECT_TRUE(varied);
}

TEST(Campaign, DifferentSeedsDrawDifferentSchedules)
{
    CampaignConfig c2 = tinyCampaign();
    c2.seed = 8;
    CampaignReport a = runCampaign(tinyCampaign());
    CampaignReport b = runCampaign(c2);
    EXPECT_NE(a.toJson(), b.toJson());
}

TEST(Campaign, ReportTableCoversEveryArmedKind)
{
    CampaignReport r = runCampaign(tinyCampaign());
    ASSERT_FALSE(r.kinds.empty());
    std::string table = r.renderTable();
    for (const auto &k : r.kinds) {
        EXPECT_NE(table.find(faultKindName(k.kind)),
                  std::string::npos)
            << faultKindName(k.kind);
        EXPECT_GE(k.armedTrials, k.firedTrials);
    }
    // Outcome counts partition the trial list.
    std::size_t sum = 0;
    for (auto o :
         {TrialOutcome::Benign, TrialOutcome::Perturbed,
          TrialOutcome::Detected, TrialOutcome::Hang,
          TrialOutcome::SilentDivergence, TrialOutcome::Crash})
        sum += r.countOutcome(o);
    EXPECT_EQ(sum, r.trials.size());
}

TEST(Campaign, CleanKindsDetectEverythingTheyFire)
{
    // The shipped checkers must leave no silent divergence or crash
    // on the fixed smoke seed — the same gate FaultCampaignSmoke
    // enforces in CI, kept here so a plain test run catches it too.
    CampaignConfig cc = tinyCampaign();
    cc.trials = 10;
    CampaignReport r = runCampaign(cc);
    EXPECT_EQ(r.countOutcome(TrialOutcome::SilentDivergence), 0u)
        << r.toJson();
    EXPECT_EQ(r.countOutcome(TrialOutcome::Crash), 0u)
        << r.toJson();
    EXPECT_TRUE(r.clean());
}

TEST(Campaign, ShrinkTargetPrefersTheMostSevereClass)
{
    // Severity order: silent divergence, crash, hang, detected;
    // lowest index within a class. Benign and perturbed trials are
    // never targets.
    CampaignReport r;
    auto add = [&](std::size_t index, TrialOutcome outcome) {
        TrialResult t;
        t.index = index;
        t.outcome = outcome;
        r.trials.push_back(t);
    };
    EXPECT_EQ(r.shrinkTarget(), nullptr);
    add(0, TrialOutcome::Benign);
    add(1, TrialOutcome::Perturbed);
    EXPECT_EQ(r.shrinkTarget(), nullptr);
    add(2, TrialOutcome::Detected);
    add(3, TrialOutcome::Detected);
    EXPECT_EQ(r.shrinkTarget()->index, 2u);
    add(4, TrialOutcome::Hang);
    EXPECT_EQ(r.shrinkTarget()->index, 4u);
    add(5, TrialOutcome::Crash);
    EXPECT_EQ(r.shrinkTarget()->index, 5u);
    add(7, TrialOutcome::SilentDivergence);
    add(6, TrialOutcome::SilentDivergence);
    EXPECT_EQ(r.shrinkTarget()->index, 6u);
}

TEST(Trial, TimingOnlyFaultTriagesAsPerturbed)
{
    // Stall one DMA line completion long enough to move the final
    // cycle count: output changes, but the fault kind is declared
    // timing-only, so triage lands on Perturbed, not divergence.
    FaultSchedule s;
    s.arm(FaultKind::StallDma, /*trigger_after=*/0,
          /*delay=*/4096);
    TrialResult t = runTrial(core::SystemKind::Scratch, "adpcm",
                             workloads::Scale::Small, s);
    EXPECT_EQ(t.outcome, TrialOutcome::Perturbed);
    EXPECT_EQ(t.faultsFired, 1u);
    EXPECT_NE(t.cleanHash, t.resultHash);
}

TEST(Trial, UnfiredScheduleTriagesAsBenign)
{
    FaultSchedule s;
    // DMA faults have no seam to fire on in a pure cache hierarchy.
    s.arm(FaultKind::TruncateDma);
    TrialResult t = runTrial(core::SystemKind::Fusion, "adpcm",
                             workloads::Scale::Small, s);
    EXPECT_EQ(t.outcome, TrialOutcome::Benign);
    EXPECT_EQ(t.faultsFired, 0u);
    EXPECT_EQ(t.cleanHash, t.resultHash);
}

TEST(Trial, CorruptionTriagesAsDetected)
{
    // Both tile protocols share the L1X host side and so its
    // "resident line owned per directory" checker.
    struct Case
    {
        core::SystemKind system;
        std::uint64_t triggerAfter;
    };
    for (const Case &c : {Case{core::SystemKind::Fusion, 2},
                          Case{core::SystemKind::FusionMesi, 23}}) {
        FaultSchedule s;
        s.arm(FaultKind::CorruptDir, c.triggerAfter);
        TrialResult t = runTrial(c.system, "adpcm",
                                 workloads::Scale::Small, s);
        EXPECT_EQ(t.outcome, TrialOutcome::Detected)
            << core::systemKindCliName(c.system);
        EXPECT_EQ(t.errorCategory, "invariant")
            << core::systemKindCliName(c.system);
    }
}

TEST(Shrinker, BenignTrialHasNothingToShrink)
{
    FaultSchedule s;
    s.arm(FaultKind::TruncateDma);
    TrialResult t = runTrial(core::SystemKind::Fusion, "adpcm",
                             workloads::Scale::Small, s);
    EXPECT_FALSE(
        shrinkTrial(t, workloads::Scale::Small).has_value());
}

TEST(Shrinker, ReducesMultiFaultScheduleToMinimalRepro)
{
    // Two timing-only decoys around one real corruption: the
    // shrinker must strip the decoys and keep the detected outcome.
    FaultSchedule s;
    s.seed = 99;
    s.arm(FaultKind::DelayGrant, 3, 32)
        .arm(FaultKind::CorruptDir, 2)
        .arm(FaultKind::ReorderFlit, 7, 16);
    TrialResult t = runTrial(core::SystemKind::Fusion, "adpcm",
                             workloads::Scale::Small, s);
    ASSERT_EQ(t.outcome, TrialOutcome::Detected);

    auto shrunk = shrinkTrial(t, workloads::Scale::Small);
    ASSERT_TRUE(shrunk.has_value());
    EXPECT_EQ(shrunk->outcome, TrialOutcome::Detected);
    EXPECT_LE(shrunk->schedule.faults.size(), 2u);
    EXPECT_GT(shrunk->probes, 0u);
    // The reproducer names the binary, the system and every
    // surviving fault spec.
    EXPECT_NE(shrunk->reproCommand.find("fault_campaign --repro"),
              std::string::npos);
    EXPECT_NE(shrunk->reproCommand.find("--system fusion"),
              std::string::npos);
    EXPECT_NE(shrunk->reproCommand.find("--workload adpcm"),
              std::string::npos);
    for (const auto &f : shrunk->schedule.faults)
        EXPECT_NE(shrunk->reproCommand.find(faultSpec(f)),
                  std::string::npos);
    // And replaying it reproduces the outcome.
    TrialResult replay =
        runTrial(shrunk->system, shrunk->workload, shrunk->scale,
                 shrunk->schedule);
    EXPECT_EQ(replay.outcome, TrialOutcome::Detected);
}

} // namespace
} // namespace fusion::guard
