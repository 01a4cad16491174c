/**
 * @file
 * Unit tests for the AUTO-mode orchestrator (src/orchestrator/):
 * policy decisions under synthetic outlooks, the forced-mode
 * StaticBest path, bandit learning determinism, and the transition
 * machinery — a mode switch must emit exactly one flush/DMA
 * transition (one ModeSwitch span, one cost event, one energy
 * booking).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/runner.hh"
#include "core/system.hh"
#include "orchestrator/orchestrator.hh"
#include "orchestrator/policy.hh"

namespace fusion::orch
{
namespace
{

core::SystemConfig
autoConfig()
{
    return core::SystemConfig::preset(
        core::SystemConfig::Preset::Paper, core::SystemKind::Auto);
}

InvocationOutlook
outlook(std::uint64_t footprint_lines, double fwd_frac,
        double l0x_miss)
{
    InvocationOutlook o;
    o.func = 0;
    o.footprintLines = footprint_lines;
    o.forwardFraction = fwd_frac;
    o.l0xMissRate = l0x_miss;
    o.l1xMissRate = 0.0;
    return o;
}

// ---------------------------------------------------------------
// Policies under synthetic counters.
// ---------------------------------------------------------------

TEST(ThresholdPolicy, ForwardingHeavyOutlookPicksFusionDx)
{
    core::SystemConfig cfg = autoConfig();
    auto policy = makePolicy(cfg);
    // Forwarding fraction above the threshold dominates.
    EXPECT_EQ(policy->choose(outlook(64, 0.25, 0.0)),
              core::SystemKind::FusionDx);
}

TEST(ThresholdPolicy, StreamingOutlookPicksScratch)
{
    core::SystemConfig cfg = autoConfig();
    // Footprint must exceed scratchFootprintRatio * l1xBytes with a
    // thrashing L0X for the DMA organization to win.
    std::uint64_t big_lines =
        (cfg.l1xBytes / kLineBytes) *
            static_cast<std::uint64_t>(
                cfg.orchestrator.scratchFootprintRatio) *
            2;
    auto policy = makePolicy(cfg);
    EXPECT_EQ(policy->choose(outlook(big_lines, 0.0, 0.9)),
              core::SystemKind::Scratch);
    // Same footprint but the L0X still hits: stay cached.
    EXPECT_EQ(policy->choose(outlook(big_lines, 0.0, 0.1)),
              core::SystemKind::Fusion);
}

TEST(ThresholdPolicy, DefaultOutlookPicksFusion)
{
    core::SystemConfig cfg = autoConfig();
    auto policy = makePolicy(cfg);
    EXPECT_EQ(policy->choose(outlook(64, 0.0, 0.2)),
              core::SystemKind::Fusion);
}

TEST(StaticBestPolicy, AlwaysPicksForcedMode)
{
    core::SystemConfig cfg = autoConfig();
    cfg.orchestrator.policy = core::OrchPolicy::StaticBest;
    cfg.orchestrator.staticMode = core::SystemKind::Shared;
    auto policy = makePolicy(cfg);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(policy->choose(outlook(1u << i, 0.5, 0.9)),
                  core::SystemKind::Shared);
    }
}

TEST(EpsilonGreedyPolicy, ExploitsObservedCheapestMode)
{
    core::SystemConfig cfg = autoConfig();
    cfg.orchestrator.policy = core::OrchPolicy::EpsilonGreedy;
    cfg.orchestrator.epsilon = 0.0; // pure exploitation
    auto policy = makePolicy(cfg);
    InvocationOutlook o = outlook(64, 0.0, 0.2);

    // Unvisited: falls back to the threshold seed (FUSION here).
    EXPECT_EQ(policy->choose(o), core::SystemKind::Fusion);

    // Teach it that SHARED retires the same function far cheaper.
    policy->observe(o, {core::SystemKind::Fusion, 10000, 0.0});
    policy->observe(o, {core::SystemKind::Shared, 100, 0.0});
    EXPECT_EQ(policy->choose(o), core::SystemKind::Shared);
}

// ---------------------------------------------------------------
// Orchestrator mechanics.
// ---------------------------------------------------------------

TEST(Orchestrator, SwitchEmitsExactlyOneFlushTransition)
{
    trace::Program p =
        *core::buildProgram("adpcm", workloads::Scale::Small);
    core::SystemConfig cfg = autoConfig();

    SimContext ctx;
    obs::ObsConfig oc;
    oc.trace = true;
    ctx.obs.configure(oc);

    Orchestrator orch(ctx, cfg, p);

    const std::uint64_t flush_lines = 10;
    Tick fired_at = 0;
    orch.transition(core::SystemKind::Fusion,
                    core::SystemKind::Scratch, flush_lines,
                    [&] { fired_at = ctx.now(); });
    ctx.eq.run();

    // The continuation fires after the modeled flush cost.
    Tick want = cfg.orchestrator.switchFixedCycles +
                cfg.orchestrator.switchCyclesPerLine * flush_lines;
    EXPECT_EQ(fired_at, want);
    EXPECT_EQ(orch.switches(), 1u);

    // Exactly one ModeSwitch span spanning the flush.
    auto spans = ctx.obs.tracer()->sortedSpans();
    std::size_t n = 0;
    for (const auto &s : spans) {
        if (s.kind == obs::SpanKind::ModeSwitch) {
            ++n;
            EXPECT_EQ(s.end - s.begin, want);
        }
    }
    EXPECT_EQ(n, 1u);

    // The flush booked energy against its own component.
    auto comps = ctx.energy.components();
    ASSERT_TRUE(comps.count("orch.flush"));
    EXPECT_DOUBLE_EQ(comps.at("orch.flush"),
                     cfg.orchestrator.switchPjPerLine *
                         static_cast<double>(flush_lines));

    // Stats mirror the switch count.
    EXPECT_EQ(ctx.stats.value("orchestrator.switches"), 1u);
    EXPECT_EQ(ctx.stats.value("orchestrator.flush_lines"), flush_lines);
}

TEST(Orchestrator, DwellHysteresisDampsThrashing)
{
    trace::Program p =
        *core::buildProgram("adpcm", workloads::Scale::Small);
    core::SystemConfig cfg = autoConfig();
    cfg.orchestrator.minDwell = 1000; // never allowed to move
    SimContext ctx;
    Orchestrator orch(ctx, cfg, p);
    core::SystemKind first = orch.decide(0);
    for (std::size_t i = 1; i < p.invocations.size(); ++i)
        EXPECT_EQ(orch.decide(i), first) << "invocation " << i;
}

// ---------------------------------------------------------------
// End-to-end AUTO runs.
// ---------------------------------------------------------------

TEST(AutoMode, RunsToCompletionAndAccountsEveryInvocation)
{
    trace::Program p =
        *core::buildProgram("adpcm", workloads::Scale::Small);
    core::RunResult r = core::runProgram(autoConfig(), p);
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_EQ(r.kind, core::SystemKind::Auto);
    std::uint64_t accounted = 0;
    for (const auto &[mode, n] : r.modeInvocations)
        accounted += n;
    EXPECT_EQ(accounted, p.invocations.size());
}

TEST(AutoMode, StaticBestForcesEveryInvocationOntoOneMode)
{
    trace::Program p =
        *core::buildProgram("fft", workloads::Scale::Small);
    core::SystemConfig cfg = autoConfig();
    cfg.orchestrator.policy = core::OrchPolicy::StaticBest;
    cfg.orchestrator.staticMode = core::SystemKind::Shared;
    core::RunResult r = core::runProgram(cfg, p);
    ASSERT_EQ(r.modeInvocations.size(), 1u);
    EXPECT_EQ(r.modeInvocations.begin()->first, "shared");
    EXPECT_EQ(r.modeInvocations.begin()->second,
              p.invocations.size());
    EXPECT_EQ(r.modeSwitches, 0u);
}

TEST(AutoMode, DeterministicAcrossRuns)
{
    trace::Program p =
        *core::buildProgram("histogram", workloads::Scale::Small);
    core::SystemConfig cfg = autoConfig();
    cfg.orchestrator.policy = core::OrchPolicy::EpsilonGreedy;
    std::string a = core::runProgram(cfg, p).toJson();
    std::string b = core::runProgram(cfg, p).toJson();
    EXPECT_EQ(a, b);
}

TEST(AutoMode, RejectsOverlapInvocations)
{
    core::SystemConfig cfg = autoConfig();
    cfg.overlapInvocations = true;
    EXPECT_FALSE(cfg.validate().empty());
}

} // namespace
} // namespace fusion::orch
