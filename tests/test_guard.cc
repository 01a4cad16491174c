/**
 * @file
 * Tests for the simulation hardening layer: watchdog liveness
 * checks, invariant checkers, typed SimError propagation, and the
 * fault-injection hooks that prove the guards actually fire.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "core/runner.hh"
#include "sim/event_queue.hh"
#include "sim/guard/registry.hh"
#include "sim/guard/sim_error.hh"
#include "sim/guard/watchdog.hh"
#include "sim/logging.hh"

namespace fusion
{
namespace
{

using core::RunResult;
using core::SystemConfig;
using core::SystemKind;

trace::Program
smallProgram()
{
    return *core::buildProgram("adpcm", workloads::Scale::Small);
}

/** Self-rescheduling no-op chain: one event per tick, no progress. */
void
scheduleIdleChain(EventQueue &eq, Tick until)
{
    eq.scheduleIn(1, [&eq, until] {
        if (eq.now() < until)
            scheduleIdleChain(eq, until);
    });
}

guard::SimError
runGuardedLoop(EventQueue &eq, guard::GuardRegistry &reg)
{
    guard::Watchdog wd(reg, eq);
    try {
        wd.drain();
    } catch (const guard::SimErrorException &ex) {
        return ex.error();
    }
    ADD_FAILURE() << "watchdog did not trip";
    return {};
}

// ---------------------------------------------------------------
// Watchdog unit tests (raw event queue, no System).
// ---------------------------------------------------------------

TEST(WatchdogUnit, NoProgressTripsWithOutstandingWork)
{
    EventQueue eq;
    guard::GuardRegistry reg;
    guard::GuardConfig cfg;
    cfg.noProgressTicks = 10;
    reg.configure(cfg);
    reg.registerSnapshot("fake.mshr", [] {
        guard::ComponentState s;
        s.outstanding = 3;
        s.detail = "stuck";
        return s;
    });
    scheduleIdleChain(eq, 100);

    guard::SimError e = runGuardedLoop(eq, reg);
    EXPECT_EQ(e.category, guard::ErrorCategory::NoProgress);
    EXPECT_EQ(e.component, "watchdog");
    EXPECT_GT(e.tick, 10u);
    EXPECT_NE(e.diagnostic.find("fake.mshr"), std::string::npos);
    EXPECT_NE(e.diagnostic.find("outstanding=3"), std::string::npos);
    EXPECT_NE(e.diagnostic.find("stuck"), std::string::npos);
}

TEST(WatchdogUnit, NoProgressIgnoredWithoutOutstandingWork)
{
    EventQueue eq;
    guard::GuardRegistry reg;
    guard::GuardConfig cfg;
    cfg.noProgressTicks = 10;
    reg.configure(cfg);
    // No snapshot provider -> outstandingTotal() == 0: an idle chain
    // is not a hang, just a quiet simulation.
    scheduleIdleChain(eq, 100);

    guard::Watchdog wd(reg, eq);
    EXPECT_NO_THROW(wd.drain());
}

TEST(WatchdogUnit, CycleBudgetTrips)
{
    EventQueue eq;
    guard::GuardRegistry reg;
    guard::GuardConfig cfg;
    cfg.maxCycles = 50;
    reg.configure(cfg);
    scheduleIdleChain(eq, 100);

    guard::SimError e = runGuardedLoop(eq, reg);
    EXPECT_EQ(e.category, guard::ErrorCategory::CycleBudget);
    EXPECT_NE(e.message.find("cycle budget"), std::string::npos);
    EXPECT_LE(e.tick, 50u);
    EXPECT_NE(e.diagnostic.find("event queue:"), std::string::npos);
}

TEST(WatchdogUnit, WallClockBudgetTrips)
{
    EventQueue eq;
    guard::GuardRegistry reg;
    guard::GuardConfig cfg;
    cfg.maxWallMs = 1;
    reg.configure(cfg);
    scheduleIdleChain(eq, 5000);

    guard::Watchdog wd(reg, eq);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    guard::SimError e;
    try {
        wd.drain();
        FAIL() << "wall-clock watchdog did not trip";
    } catch (const guard::SimErrorException &ex) {
        e = ex.error();
    }
    EXPECT_EQ(e.category, guard::ErrorCategory::WallClock);
}

TEST(WatchdogUnit, SameTickLivelockTripsWallClock)
{
    EventQueue eq;
    guard::GuardRegistry reg;
    guard::GuardConfig cfg;
    cfg.maxWallMs = 1;
    reg.configure(cfg);
    // One event respawns itself at delta 0, so the clock never leaves
    // tick 0 and only the batch cap hands control back to the
    // watchdog. The spin gives up after a fixed count: a batch that
    // ran the whole tick would drain the queue untripped and fail
    // here instead of hanging.
    std::uint64_t spins = 0;
    std::function<void()> spin = [&] {
        if (++spins < (1u << 22))
            eq.scheduleIn(0, [&] { spin(); });
    };
    eq.scheduleIn(0, [&] { spin(); });

    guard::SimError e = runGuardedLoop(eq, reg);
    EXPECT_EQ(e.category, guard::ErrorCategory::WallClock);
    EXPECT_EQ(e.tick, 0u);
    EXPECT_LT(spins, 1u << 22);
}

TEST(WatchdogUnit, PeriodicInvariantViolationTrips)
{
    EventQueue eq;
    guard::GuardRegistry reg;
    guard::GuardConfig cfg;
    cfg.invariantPeriod = 4;
    reg.configure(cfg);
    reg.registerInvariant(
        "fake.checker",
        [&eq](const guard::InvariantContext &ic,
              std::vector<std::string> &out) {
            if (ic.now >= 20)
                out.push_back("went bad");
        });
    scheduleIdleChain(eq, 100);

    guard::SimError e = runGuardedLoop(eq, reg);
    EXPECT_EQ(e.category, guard::ErrorCategory::Invariant);
    EXPECT_EQ(e.component, "invariant-checker");
    EXPECT_NE(e.diagnostic.find("fake.checker: went bad"),
              std::string::npos);
}

TEST(WatchdogUnit, ArmedFaultFiresExactlyOnce)
{
    guard::GuardRegistry reg;
    guard::GuardConfig cfg;
    cfg.schedule.arm(guard::FaultKind::LeakMshr, /*trigger_after=*/2);
    reg.configure(cfg);

    // Wrong kind never fires and does not consume opportunities.
    EXPECT_FALSE(reg.fireFault(guard::FaultKind::DropWriteback));
    EXPECT_FALSE(reg.fireFault(guard::FaultKind::LeakMshr)); // #0
    EXPECT_FALSE(reg.fireFault(guard::FaultKind::LeakMshr)); // #1
    EXPECT_TRUE(reg.fireFault(guard::FaultKind::LeakMshr));  // #2
    EXPECT_FALSE(reg.fireFault(guard::FaultKind::LeakMshr)); // spent
}

// ---------------------------------------------------------------
// fusion_panic routing (satellite: assertions become SimErrors).
// ---------------------------------------------------------------

TEST(PanicRouting, ThrowsTypedErrorUnderTickScope)
{
    EventQueue eq;
    eq.scheduleIn(42, [] {});
    eq.step();
    guard::TickScope scope(eq);
    try {
        fusion_panic("broken ", 123);
        FAIL() << "panic did not throw";
    } catch (const guard::SimErrorException &ex) {
        EXPECT_EQ(ex.error().category,
                  guard::ErrorCategory::Assertion);
        EXPECT_NE(ex.error().message.find("broken 123"),
                  std::string::npos);
        EXPECT_EQ(ex.error().tick, 42u);
        EXPECT_NE(std::string(ex.what()).find("assertion"),
                  std::string::npos);
    }
}

TEST(PanicRouting, AbortsWithoutTickScope)
{
    ASSERT_FALSE(guard::TickScope::active());
    EXPECT_DEATH(fusion_panic("still fatal"), "still fatal");
}

// ---------------------------------------------------------------
// Whole-system behaviour.
// ---------------------------------------------------------------

guard::GuardConfig
fullChecks()
{
    guard::GuardConfig g;
    g.maxCycles = 1ull << 40;
    g.noProgressTicks = 1u << 20;
    g.invariantPeriod = 64;
    g.invariantsAtEnd = true;
    return g;
}

class GuardedSystems : public ::testing::TestWithParam<SystemKind>
{
};

TEST_P(GuardedSystems, HealthyRunUnchangedByGuards)
{
    trace::Program p = smallProgram();
    SystemConfig off = SystemConfig::preset(SystemConfig::Preset::Paper, GetParam());
    SystemConfig on = off;
    on.guard = fullChecks();

    RunResult base = core::runProgram(off, p);
    RunResult guarded = core::runProgram(on, p);
    ASSERT_FALSE(guarded.failed())
        << guarded.error->toJson();
    // Guards observe; they never perturb: outputs byte-identical.
    EXPECT_EQ(base.toJson(), guarded.toJson());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, GuardedSystems,
    ::testing::Values(SystemKind::Scratch, SystemKind::Shared,
                      SystemKind::Fusion, SystemKind::FusionDx,
                      SystemKind::FusionMesi),
    [](const auto &info) {
        std::string n = core::systemKindName(info.param);
        std::string out;
        for (char c : n)
            if (c != '-')
                out += c;
        return out;
    });

TEST(GuardedSystems, CycleBudgetRecordedNotAborted)
{
    trace::Program p = smallProgram();
    SystemConfig cfg = SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion);
    cfg.guard.maxCycles = 200;

    RunResult r = core::runProgram(cfg, p);
    ASSERT_TRUE(r.failed());
    EXPECT_EQ(r.error->category, guard::ErrorCategory::CycleBudget);
    EXPECT_EQ(r.error->component, "watchdog");
    EXPECT_LE(r.error->tick, 200u);
    EXPECT_NE(r.error->diagnostic.find("event queue:"),
              std::string::npos);
    EXPECT_EQ(r.workload, "adpcm");
    EXPECT_EQ(r.kind, SystemKind::Fusion);
    // The error also lands in the JSON report.
    EXPECT_NE(r.toJson().find("\"category\":\"cycle-budget\""),
              std::string::npos);
}

// ---------------------------------------------------------------
// Fault injection through the real protocol stack.
// ---------------------------------------------------------------

TEST(FaultInjection, LeakedMshrIsCaughtAsDeadlock)
{
    trace::Program p = smallProgram();
    SystemConfig cfg = SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion);
    cfg.guard.schedule.arm(guard::FaultKind::LeakMshr);

    RunResult r = core::runProgram(cfg, p);
    ASSERT_TRUE(r.failed());
    EXPECT_EQ(r.error->category, guard::ErrorCategory::Deadlock);
    // The diagnostic names the component still holding work and the
    // leaked line address.
    EXPECT_NE(r.error->diagnostic.find("l0x"), std::string::npos);
    EXPECT_NE(r.error->diagnostic.find("mshr_lines=[0x"),
              std::string::npos);
}

TEST(FaultInjection, CorruptLeaseTripsAccInvariant)
{
    trace::Program p = smallProgram();
    SystemConfig cfg = SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion);
    cfg.guard.schedule.arm(guard::FaultKind::CorruptLease,
                           /*trigger_after=*/0, /*delay=*/1u << 20);
    cfg.guard.invariantPeriod = 1;

    RunResult r = core::runProgram(cfg, p);
    ASSERT_TRUE(r.failed());
    EXPECT_EQ(r.error->category, guard::ErrorCategory::Invariant);
    EXPECT_NE(r.error->message.find("invariant violation"),
              std::string::npos);
    EXPECT_NE(r.error->diagnostic.find("not covered by L1X GTIME"),
              std::string::npos);
}

TEST(FaultInjection, DroppedWritebackIsDetected)
{
    trace::Program p = smallProgram();
    SystemConfig cfg = SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion);
    cfg.guard.schedule.arm(guard::FaultKind::DropWriteback);
    cfg.guard.invariantsAtEnd = true;

    RunResult r = core::runProgram(cfg, p);
    ASSERT_TRUE(r.failed());
    // A swallowed writeback either wedges later requesters of the
    // locked line (deadlock / assertion on teardown) or survives to
    // the end-of-sim invariant pass; all are typed failures.
    EXPECT_TRUE(r.error->category ==
                    guard::ErrorCategory::Deadlock ||
                r.error->category ==
                    guard::ErrorCategory::Invariant ||
                r.error->category ==
                    guard::ErrorCategory::Assertion)
        << r.error->toJson();
    EXPECT_FALSE(r.error->diagnostic.empty());
}

TEST(FaultInjection, DelayedGrantIsDeterministic)
{
    trace::Program p = smallProgram();
    SystemConfig cfg = SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion);
    cfg.guard.schedule.arm(guard::FaultKind::DelayGrant,
                           /*trigger_after=*/5, /*delay=*/4);

    RunResult a = core::runProgram(cfg, p);
    RunResult b = core::runProgram(cfg, p);
    ASSERT_FALSE(a.failed());
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_GT(a.totalCycles, 0u);
}

// ---------------------------------------------------------------
// GuardConfig::anyEnabled() regression: an armed fault schedule
// must count as "guard layer in use" (the watchdog, the
// link delivery tracking and the harness instrumentation all key
// off it), even with every liveness/invariant knob off.
// ---------------------------------------------------------------

TEST(GuardConfigUnit, AnyEnabledSeesArmedFaults)
{
    guard::GuardConfig off;
    EXPECT_FALSE(off.anyEnabled());
    EXPECT_FALSE(off.faultArmed());

    guard::GuardConfig sched;
    sched.schedule.arm(guard::FaultKind::DropFlit, 3);
    EXPECT_TRUE(sched.faultArmed());
    EXPECT_TRUE(sched.anyEnabled());
}

// ---------------------------------------------------------------
// Fault-spec parsing (the shared --fault CLI syntax).
// ---------------------------------------------------------------

TEST(FaultSpecUnit, ParsesAndRoundTrips)
{
    guard::ArmedFault f;
    ASSERT_TRUE(guard::parseFaultSpec("drop-flit", f));
    EXPECT_EQ(f.kind, guard::FaultKind::DropFlit);
    EXPECT_EQ(f.triggerAfter, 0u);
    EXPECT_EQ(f.delay, 0u);
    EXPECT_EQ(f.probability, 1.0);

    ASSERT_TRUE(guard::parseFaultSpec("corrupt-dir:4", f));
    EXPECT_EQ(f.kind, guard::FaultKind::CorruptDir);
    EXPECT_EQ(f.triggerAfter, 4u);

    ASSERT_TRUE(guard::parseFaultSpec("dma-stall:2:128", f));
    EXPECT_EQ(f.kind, guard::FaultKind::StallDma);
    EXPECT_EQ(f.triggerAfter, 2u);
    EXPECT_EQ(f.delay, 128u);

    ASSERT_TRUE(guard::parseFaultSpec("dup-flit:1:0:0.5", f));
    EXPECT_EQ(f.kind, guard::FaultKind::DupFlit);
    EXPECT_EQ(f.probability, 0.5);

    // faultSpec() emits what parseFaultSpec() accepts.
    guard::ArmedFault back;
    ASSERT_TRUE(guard::parseFaultSpec(guard::faultSpec(f), back));
    EXPECT_EQ(back.kind, f.kind);
    EXPECT_EQ(back.triggerAfter, f.triggerAfter);
    EXPECT_EQ(back.delay, f.delay);
    EXPECT_EQ(back.probability, f.probability);
}

TEST(FaultSpecUnit, RejectsMalformedSpecs)
{
    guard::ArmedFault f;
    EXPECT_FALSE(guard::parseFaultSpec("", f));
    EXPECT_FALSE(guard::parseFaultSpec("none", f));
    EXPECT_FALSE(guard::parseFaultSpec("unknown-kind", f));
    EXPECT_FALSE(guard::parseFaultSpec("drop-flit:x", f));
    EXPECT_FALSE(guard::parseFaultSpec("drop-flit:1:2:1.5", f));
    EXPECT_FALSE(guard::parseFaultSpec("drop-flit:1:2:0.5:9", f));
}

TEST(FaultSpecUnit, EveryKindHasAStableNameRoundTrip)
{
    for (unsigned k = 1; k < guard::kFaultKindCount; ++k) {
        auto kind = static_cast<guard::FaultKind>(k);
        const char *name = guard::faultKindName(kind);
        ASSERT_STRNE(name, "unknown") << k;
        guard::FaultKind parsed = guard::FaultKind::None;
        ASSERT_TRUE(guard::parseFaultKind(name, parsed)) << name;
        EXPECT_EQ(parsed, kind) << name;
    }
}

// ---------------------------------------------------------------
// FaultSchedule semantics on a raw registry.
// ---------------------------------------------------------------

TEST(FaultScheduleUnit, IndependentKindsFireIndependently)
{
    guard::GuardRegistry reg;
    guard::GuardConfig cfg;
    cfg.schedule.arm(guard::FaultKind::DropFlit, 1)
        .arm(guard::FaultKind::TruncateDma, 0, 16);
    reg.configure(cfg);

    // TruncateDma fires on its first opportunity; DropFlit needs one
    // skipped opportunity first. Neither consumes the other's count.
    EXPECT_TRUE(reg.fireFault(guard::FaultKind::TruncateDma));
    EXPECT_EQ(reg.faultDelay(), 16u);
    EXPECT_FALSE(reg.fireFault(guard::FaultKind::DropFlit)); // #0
    EXPECT_TRUE(reg.fireFault(guard::FaultKind::DropFlit));  // #1
    EXPECT_FALSE(reg.fireFault(guard::FaultKind::DropFlit));
    EXPECT_EQ(reg.faultsFired(), 2u);
    EXPECT_TRUE(reg.firedFaultMask() &
                (1u << static_cast<unsigned>(
                     guard::FaultKind::DropFlit)));
    EXPECT_TRUE(reg.firedFaultMask() &
                (1u << static_cast<unsigned>(
                     guard::FaultKind::TruncateDma)));
}

TEST(FaultScheduleUnit, RepeatedKindFiresOncePerEntry)
{
    guard::GuardRegistry reg;
    guard::GuardConfig cfg;
    cfg.schedule.arm(guard::FaultKind::DropFlit)
        .arm(guard::FaultKind::DropFlit);
    reg.configure(cfg);

    EXPECT_TRUE(reg.fireFault(guard::FaultKind::DropFlit));
    EXPECT_TRUE(reg.fireFault(guard::FaultKind::DropFlit));
    EXPECT_FALSE(reg.fireFault(guard::FaultKind::DropFlit));
    EXPECT_EQ(reg.faultsFired(), 2u);
}

TEST(FaultScheduleUnit, ProbabilisticDrawIsSeedDeterministic)
{
    auto trace = [](std::uint64_t seed) {
        guard::GuardRegistry reg;
        guard::GuardConfig cfg;
        cfg.schedule.seed = seed;
        cfg.schedule.arm(guard::FaultKind::DropFlit, 0, 0, 0.3);
        reg.configure(cfg);
        std::string out;
        for (int i = 0; i < 64; ++i)
            out += reg.fireFault(guard::FaultKind::DropFlit) ? '1'
                                                             : '0';
        return out;
    };
    // Same seed, same draw sequence; the fault fires exactly once.
    std::string a = trace(42);
    EXPECT_EQ(a, trace(42));
    EXPECT_EQ(std::count(a.begin(), a.end(), '1'), 1);
    // A p=0.3 draw should not fire on a different seed at exactly
    // the same opportunity for every seed; spot-check divergence.
    EXPECT_NE(a, trace(43));
}

// ---------------------------------------------------------------
// The widened fault surface, end to end: every new kind fires at
// its protocol seam and is caught by a matching checker (or is
// timing-only and must keep the run deterministic).
// ---------------------------------------------------------------

/** Arm @p kind as a one-shot schedule with full checks. */
SystemConfig
faultedConfig(SystemKind system, guard::FaultKind kind,
              std::uint64_t trigger_after = 0, Cycles delay = 0)
{
    SystemConfig cfg = SystemConfig::preset(SystemConfig::Preset::Paper, system);
    cfg.guard = fullChecks();
    cfg.guard.schedule.arm(kind, trigger_after, delay);
    return cfg;
}

TEST(FaultSurface, DroppedFlitIsDetected)
{
    trace::Program p = smallProgram();
    SystemConfig cfg =
        faultedConfig(SystemKind::Fusion, guard::FaultKind::DropFlit,
                      /*trigger_after=*/8);

    RunResult r = core::runProgram(cfg, p);
    ASSERT_TRUE(r.failed());
    EXPECT_EQ(r.faultsFired, 1u);
    // A lost delivery either wedges a waiter (deadlock) or the run
    // limps to the end where the link delivery-conservation
    // invariant counts it.
    EXPECT_TRUE(r.error->category ==
                    guard::ErrorCategory::Deadlock ||
                r.error->category ==
                    guard::ErrorCategory::Invariant)
        << r.error->toJson();
}

TEST(FaultSurface, DuplicatedFlitTripsConservation)
{
    trace::Program p = smallProgram();
    SystemConfig cfg =
        faultedConfig(SystemKind::Fusion, guard::FaultKind::DupFlit,
                      /*trigger_after=*/4);

    RunResult r = core::runProgram(cfg, p);
    ASSERT_TRUE(r.failed());
    EXPECT_EQ(r.faultsFired, 1u);
    EXPECT_EQ(r.error->category, guard::ErrorCategory::Invariant);
    EXPECT_NE(r.error->diagnostic.find("flit"), std::string::npos);
}

TEST(FaultSurface, ReorderedFlitIsTimingOnly)
{
    trace::Program p = smallProgram();
    SystemConfig cfg = faultedConfig(SystemKind::Fusion,
                                     guard::FaultKind::ReorderFlit,
                                     /*trigger_after=*/8,
                                     /*delay=*/32);

    RunResult a = core::runProgram(cfg, p);
    RunResult b = core::runProgram(cfg, p);
    ASSERT_FALSE(a.failed()) << a.error->toJson();
    EXPECT_EQ(a.faultsFired, 1u);
    EXPECT_TRUE(
        guard::faultPerturbsTimingOnly(guard::FaultKind::ReorderFlit));
    EXPECT_EQ(a.toJson(), b.toJson());
}

TEST(FaultSurface, TruncatedDmaTripsLineConservation)
{
    trace::Program p = smallProgram();
    SystemConfig cfg = faultedConfig(SystemKind::Scratch,
                                     guard::FaultKind::TruncateDma,
                                     /*trigger_after=*/2);

    RunResult r = core::runProgram(cfg, p);
    ASSERT_TRUE(r.failed());
    EXPECT_EQ(r.faultsFired, 1u);
    EXPECT_EQ(r.error->category, guard::ErrorCategory::Invariant);
    EXPECT_NE(r.error->diagnostic.find("line transfers"),
              std::string::npos);
}

TEST(FaultSurface, StalledDmaIsTimingOnly)
{
    trace::Program p = smallProgram();
    SystemConfig cfg = faultedConfig(SystemKind::Scratch,
                                     guard::FaultKind::StallDma,
                                     /*trigger_after=*/2,
                                     /*delay=*/512);

    RunResult a = core::runProgram(cfg, p);
    RunResult b = core::runProgram(cfg, p);
    ASSERT_FALSE(a.failed()) << a.error->toJson();
    EXPECT_EQ(a.faultsFired, 1u);
    EXPECT_TRUE(
        guard::faultPerturbsTimingOnly(guard::FaultKind::StallDma));
    EXPECT_EQ(a.toJson(), b.toJson());
}

TEST(FaultSurface, CorruptedDirectoryTripsResidencyInvariant)
{
    trace::Program p = smallProgram();
    SystemConfig cfg = faultedConfig(SystemKind::Fusion,
                                     guard::FaultKind::CorruptDir,
                                     /*trigger_after=*/2);
    cfg.guard.invariantPeriod = 1;

    RunResult r = core::runProgram(cfg, p);
    ASSERT_TRUE(r.failed());
    EXPECT_EQ(r.faultsFired, 1u);
    EXPECT_EQ(r.error->category, guard::ErrorCategory::Invariant);
    // Caught by an agent-side residency checker: a cached copy the
    // directory no longer accounts for.
    EXPECT_NE(r.error->diagnostic.find("directory"),
              std::string::npos);
}

TEST(FaultSurface, StaleHostL1TripsMesiAgreement)
{
    trace::Program p = smallProgram();
    SystemConfig cfg = faultedConfig(SystemKind::Fusion,
                                     guard::FaultKind::StaleHostL1);
    cfg.guard.invariantPeriod = 1;

    RunResult r = core::runProgram(cfg, p);
    ASSERT_TRUE(r.failed());
    EXPECT_EQ(r.faultsFired, 1u);
    EXPECT_EQ(r.error->category, guard::ErrorCategory::Invariant);
    EXPECT_NE(r.error->diagnostic.find("not in directory"),
              std::string::npos);
}

} // namespace
} // namespace fusion
