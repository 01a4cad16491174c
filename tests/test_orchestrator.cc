/**
 * @file
 * Unit tests for the AUTO-mode orchestrator (src/orchestrator/):
 * the threshold rule under synthetic inputs, the transition
 * machinery — a mode switch must emit exactly one flush/DMA
 * transition (one ModeSwitch span, one cost event, one energy
 * booking) — and end-to-end AUTO runs, one of which switches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "core/runner.hh"
#include "core/system.hh"
#include "orchestrator/orchestrator.hh"
#include "sim/hash.hh"
#include "trace/analysis.hh"
#include "trace/recorder.hh"

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

/** The host side an Orchestrator's frontends attach to. */
struct HostSide
{
    explicit HostSide(SimContext &ctx)
        : dram(ctx, mem::DramParams{}), llc(ctx, host::LlcParams{}, dram)
    {
    }

    /** What core::System hands AUTO's frontend for @p p. */
    accel::FrontendEnv
    env(SimContext &ctx, const core::SystemConfig &cfg,
        const trace::Program &p)
    {
        return {ctx, cfg, p, llc, pt, std::max(1u, p.accelCount())};
    }

    mem::Dram dram;
    host::Llc llc;
    vm::PageTable pt;
};

// ---------------------------------------------------------------
// The threshold rule under synthetic inputs.
// ---------------------------------------------------------------

TEST(ThresholdPolicy, ForwardingHeavyOutlookPicksFusionDx)
{
    core::SystemConfig cfg = autoConfig();
    // Forwarding fraction above the threshold dominates.
    EXPECT_EQ(chooseMode(0.25, 64, 0.0, cfg.l1xBytes),
              core::SystemKind::FusionDx);
}

TEST(ThresholdPolicy, StreamingOutlookPicksScratch)
{
    core::SystemConfig cfg = autoConfig();
    // Footprint must exceed kScratchFootprintRatio * l1xBytes with a
    // thrashing L0X for the DMA organization to win.
    std::uint64_t big_lines =
        (cfg.l1xBytes / kLineBytes) *
            static_cast<std::uint64_t>(kScratchFootprintRatio) * 2;
    EXPECT_EQ(chooseMode(0.0, big_lines, 0.9, cfg.l1xBytes),
              core::SystemKind::Scratch);
    // Same footprint but the L0X still hits: stay cached.
    EXPECT_EQ(chooseMode(0.0, big_lines, 0.1, cfg.l1xBytes),
              core::SystemKind::Fusion);
}

TEST(ThresholdPolicy, DefaultOutlookPicksFusion)
{
    core::SystemConfig cfg = autoConfig();
    EXPECT_EQ(chooseMode(0.0, 64, 0.2, cfg.l1xBytes),
              core::SystemKind::Fusion);
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

    HostSide host(ctx);
    Orchestrator orch(host.env(ctx, cfg, p));

    const std::uint64_t flush_lines = 10;
    Tick fired_at = 0;
    orch.transition(core::SystemKind::Fusion,
                    core::SystemKind::Scratch, flush_lines,
                    [&] { fired_at = ctx.now(); });
    ctx.eq.run();

    // The continuation fires after the modeled flush cost.
    Tick want = kSwitchFixedCycles + kSwitchCyclesPerLine * flush_lines;
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
                     kSwitchPjPerLine *
                         static_cast<double>(flush_lines));

    // Stats mirror the switch count.
    EXPECT_EQ(ctx.stats.value("orchestrator.switches"), 1u);
    EXPECT_EQ(ctx.stats.value("orchestrator.flush_lines"), flush_lines);
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

TEST(AutoMode, DeterministicAcrossRuns)
{
    trace::Program p =
        *core::buildProgram("histogram", workloads::Scale::Small);
    core::SystemConfig cfg = autoConfig();
    std::string a = core::runProgram(cfg, p).toJson();
    std::string b = core::runProgram(cfg, p).toJson();
    EXPECT_EQ(a, b);
}

/**
 * Six invocations on which AUTO switches exactly once. Invocation 0
 * (accel 0) touches 100 lines and stores 3 of them; invocation 1
 * (accel 1) loads those 3 first, so invocation 0 forwards 3% of its
 * footprint. Invocations 2..5 load the same 3 lines and each store a
 * line nothing reads again: they forward nothing.
 */
trace::Program
switchingProgram()
{
    auto line = [](std::uint64_t i) -> Addr {
        return 0x10000000 + i * kLineBytes;
    };
    trace::Recorder rec("switch");
    FuncId produce = rec.addFunction({"produce", 0, 4, 500});
    FuncId consume = rec.addFunction({"consume", 1, 4, 500});
    rec.beginInvocation(produce);
    for (std::uint64_t i = 0; i < 100; ++i) {
        if (i < 3)
            rec.store(line(i), 8);
        else
            rec.load(line(i), 8);
    }
    rec.end();
    for (std::uint64_t inv = 1; inv < 6; ++inv) {
        rec.beginInvocation(inv % 2 == 1 ? consume : produce);
        for (std::uint64_t i = 0; i < 3; ++i)
            rec.load(line(i), 8);
        if (inv > 1)
            rec.store(line(100 + inv), 8);
        rec.end();
    }
    return rec.take();
}

// The forward-fraction EWMA reads 0.03, 0.015, 0.0075, ...: the rule
// picks FUSION-Dx for invocation 0 and FUSION from invocation 1 on,
// but the dwell of 2 holds FUSION-Dx through invocation 1, so the one
// switch (FUSION-Dx's dirty lines drained, the flush cost paid) comes
// before invocation 2. The guard's invariants run throughout,
// including the orchestrator's single-active-frontend check.
TEST(AutoMode, SwitchesOnceAfterTheDwell)
{
    trace::Program p = switchingProgram();
    trace::ForwardPlan plan = trace::planForwarding(p);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan.at(0).size(), 3u);

    core::SystemConfig cfg = autoConfig();
    {
        SimContext ctx;
        HostSide host(ctx);
        Orchestrator orch(host.env(ctx, cfg, p));
        const core::SystemKind want[] = {
            core::SystemKind::FusionDx, core::SystemKind::FusionDx,
            core::SystemKind::Fusion,   core::SystemKind::Fusion,
            core::SystemKind::Fusion,   core::SystemKind::Fusion};
        for (std::size_t i = 0; i < p.invocations.size(); ++i)
            EXPECT_EQ(orch.decide(i), want[i]) << "invocation " << i;
    }

    cfg.guard.noProgressTicks = 1u << 20;
    cfg.guard.invariantPeriod = 64;
    cfg.guard.invariantsAtEnd = true;
    core::RunResult r = core::runProgram(cfg, p);
    ASSERT_FALSE(r.failed()) << r.error->toJson();
    EXPECT_EQ(r.modeSwitches, 1u);
    const std::map<std::string, std::uint64_t> mix{{"fusion", 4},
                                                   {"fusion-dx", 2}};
    EXPECT_EQ(r.modeInvocations, mix);
    std::string json = r.toJson();
    EXPECT_EQ(core::runProgram(cfg, p).toJson(), json);
    // Recorded from the tree just before AUTO's policy framework
    // folded into the orchestrator's one rule.
    EXPECT_EQ(fnv1a(json), 0xe4ea82e82aebf95aull);
}

TEST(AutoMode, RejectsOverlapInvocations)
{
    core::SystemConfig cfg = autoConfig();
    cfg.overlapInvocations = true;
    EXPECT_FALSE(cfg.validate().empty());
}

} // namespace
} // namespace fusion::orch
