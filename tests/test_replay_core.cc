/**
 * @file
 * Replay core timing model tests. The AccelCore suites drive an
 * accelerator's core against a scripted MemPort; the HostCore suites
 * drive the host's core through core::HostTile (host port, L1, LLC,
 * DRAM).
 */

#include <gtest/gtest.h>

#include "accel/replay_core.hh"
#include "core/host_tile.hh"
#include "sim/sim_context.hh"

namespace fusion::accel
{
namespace
{

/** Port with a fixed per-access latency; records issue times. */
class FixedLatencyPort : public MemPort
{
  public:
    FixedLatencyPort(SimContext &ctx, Cycles lat)
        : _ctx(ctx), _lat(lat)
    {
    }

    void
    access(Addr va, std::uint32_t, bool is_write,
           PortDone done) override
    {
        issues.push_back({_ctx.now(), va, is_write});
        ++inflight;
        maxInflight = std::max(maxInflight, inflight);
        _ctx.eq.scheduleIn(_lat,
                           [this, done = std::move(done)]() mutable {
                               --inflight;
                               done();
                           });
    }

    struct Issue
    {
        Tick when;
        Addr va;
        bool write;
    };
    std::vector<Issue> issues;
    std::uint32_t inflight = 0;
    std::uint32_t maxInflight = 0;

  private:
    SimContext &_ctx;
    Cycles _lat;
};

/** @p p as accelerator 0's core: its name, booking compute energy. */
ReplayCoreParams
asAccel(ReplayCoreParams p)
{
    p.name = "axc0.core";
    p.computeComponent = energy::comp::kAxcCompute;
    return p;
}

struct CoreRig
{
    SimContext ctx;
    ReplayCore core;
    explicit CoreRig(ReplayCoreParams p = {}) : core(ctx, asAccel(p)) {}

    Tick
    runSync(const trace::Invocation &inv, std::uint32_t mlp,
            MemPort &port)
    {
        bool done = false;
        Tick t0 = ctx.now();
        core.run(inv.ops, 0, inv.ops.size(), mlp, port,
                 [&] { done = true; });
        ctx.eq.run();
        EXPECT_TRUE(done);
        return ctx.now() - t0;
    }
};

trace::Invocation
loadsOnly(int n)
{
    trace::Invocation inv;
    inv.func = 0;
    for (int i = 0; i < n; ++i)
        inv.ops.push_back(trace::TraceOp::load(0x1000 + 64u * i, 8));
    return inv;
}

TEST(AccelCore, MlpBoundsOutstandingLoads)
{
    CoreRig r;
    FixedLatencyPort port(r.ctx, 50);
    r.runSync(loadsOnly(20), 3, port);
    EXPECT_EQ(port.maxInflight, 3u);
}

TEST(AccelCore, HigherMlpIsFasterOnLatencyBoundStreams)
{
    Tick t_low, t_high;
    {
        CoreRig r;
        FixedLatencyPort port(r.ctx, 50);
        t_low = r.runSync(loadsOnly(20), 1, port);
    }
    {
        CoreRig r;
        FixedLatencyPort port(r.ctx, 50);
        t_high = r.runSync(loadsOnly(20), 5, port);
    }
    EXPECT_LT(t_high * 3, t_low);
}

TEST(AccelCore, ComputeGapsStallIssue)
{
    CoreRig r;
    FixedLatencyPort port(r.ctx, 1);
    trace::Invocation inv;
    inv.func = 0;
    inv.ops.push_back(trace::TraceOp::load(0x1000, 8));
    inv.ops.push_back(trace::TraceOp::compute(40, 0)); // 10 cycles
    inv.ops.push_back(trace::TraceOp::load(0x1040, 8));
    r.runSync(inv, 4, port);
    ASSERT_EQ(port.issues.size(), 2u);
    EXPECT_GE(port.issues[1].when - port.issues[0].when, 10u);
}

TEST(AccelCore, ComputeEnergyFollowsActivityCounts)
{
    ReplayCoreParams p;
    CoreRig r(p);
    FixedLatencyPort port(r.ctx, 1);
    trace::Invocation inv;
    inv.func = 0;
    inv.ops.push_back(trace::TraceOp::compute(100, 10));
    r.runSync(inv, 2, port);
    EXPECT_DOUBLE_EQ(
        r.ctx.energy.total(energy::comp::kAxcCompute),
        100 * p.intOpPj + 10 * p.fpOpPj);
}

TEST(AccelCore, StoreBufferDecouplesStores)
{
    ReplayCoreParams p;
    p.storeBuffer = 4;
    CoreRig r(p);
    FixedLatencyPort port(r.ctx, 100); // slow stores
    trace::Invocation inv;
    inv.func = 0;
    for (int i = 0; i < 4; ++i)
        inv.ops.push_back(
            trace::TraceOp::store(0x1000 + 64u * i, 8));
    Tick t = r.runSync(inv, 1, port);
    // All four issue back-to-back; completion bounded by one
    // latency, not four.
    EXPECT_LT(t, 150u);
    EXPECT_EQ(port.maxInflight, 4u);
}

TEST(AccelCore, SubRangeReplaysOnlyTheWindow)
{
    CoreRig r;
    FixedLatencyPort port(r.ctx, 1);
    trace::Invocation inv = loadsOnly(10);
    bool done = false;
    r.core.run(inv.ops, 3, 7, 2, port, [&] { done = true; });
    r.ctx.eq.run();
    EXPECT_TRUE(done);
    ASSERT_EQ(port.issues.size(), 4u);
    EXPECT_EQ(port.issues[0].va, 0x1000u + 64 * 3);
    EXPECT_EQ(port.issues[3].va, 0x1000u + 64 * 6);
}

TEST(AccelCore, CompletionWaitsForAllOutstanding)
{
    CoreRig r;
    FixedLatencyPort port(r.ctx, 200);
    trace::Invocation inv;
    inv.func = 0;
    inv.ops.push_back(trace::TraceOp::store(0x1000, 8));
    Tick t = r.runSync(inv, 1, port);
    EXPECT_GE(t, 200u);
    EXPECT_FALSE(r.core.busy());
}

TEST(AccelCoreDeathTest, ZeroMlpPanics)
{
    CoreRig r;
    FixedLatencyPort port(r.ctx, 1);
    trace::Invocation inv = loadsOnly(1);
    EXPECT_DEATH(r.core.run(inv.ops, 0, 1, 0, port, [] {}), "MLP");
}

/** The host side of a default system, replaying as process 1. */
struct HostRig
{
    SimContext ctx;
    vm::PageTable pt;
    core::HostTile host{ctx, pt, 1};

    /** Replay @p ops through host.core with at most @p max_loads
     *  loads in flight; returns the cycles taken. */
    Tick
    runSync(const std::vector<trace::TraceOp> &ops,
            std::uint32_t max_loads = core::kHostMaxLoads)
    {
        pt.ensureMappedRange(1, 0, 1 << 20);
        Tick t0 = ctx.now();
        bool done = false;
        host.core.run(ops, 0, ops.size(), max_loads, host.port,
                      [&] { done = true; });
        ctx.eq.run();
        EXPECT_TRUE(done);
        return ctx.now() - t0;
    }

    /** Committed memory operations. */
    std::uint64_t
    memOps() const
    {
        return ctx.stats.value("host.core.loads") +
               ctx.stats.value("host.core.stores");
    }
};

TEST(HostCore, EmptyStreamCompletesImmediately)
{
    HostRig r;
    EXPECT_EQ(r.runSync({}), 0u);
    EXPECT_FALSE(r.host.core.busy());
}

TEST(HostCore, ComputeBurstTakesWidthScaledCycles)
{
    // {int ops, fp ops, cycles at width 4}. The last two sum past
    // 2^32: the cycles are computed in 64 bits.
    struct Case
    {
        std::uint32_t intOps;
        std::uint32_t fpOps;
        Tick cycles;
    };
    for (const Case &c : {Case{40, 0, 10}, Case{0xFFFFFFFDu, 0, 1u << 30},
                          Case{1u << 31, 1u << 31, 1u << 30}}) {
        HostRig r;
        EXPECT_EQ(r.runSync({trace::TraceOp::compute(c.intOps, c.fpOps)}),
                  c.cycles)
            << c.intOps << " int + " << c.fpOps << " fp ops";
    }
}

TEST(HostCore, MemoryOpsPipelineAtOnePerCycle)
{
    HostRig r;
    std::vector<trace::TraceOp> ops;
    // Warm one line.
    ops.push_back(trace::TraceOp::load(0x100, 8));
    Tick t_one = r.runSync(ops);
    // 16 more loads to the same (now hot) line.
    ops.clear();
    for (int i = 0; i < 16; ++i)
        ops.push_back(trace::TraceOp::load(0x100, 8));
    Tick t = r.runSync(ops);
    // Hits pipeline: far less than 16 serial L1 latencies.
    EXPECT_LT(t, 16 * 4u);
    EXPECT_GT(t, 15u);
    (void)t_one;
}

TEST(HostCore, StoresDoNotBlockIssue)
{
    HostRig r;
    // A cold store (long LLC+DRAM miss) followed by hot loads: the
    // loads must not wait for the store to complete.
    r.runSync({trace::TraceOp::load(0x200, 8)});
    std::vector<trace::TraceOp> ops;
    ops.push_back(trace::TraceOp::store(0x40000, 8)); // cold
    for (int i = 0; i < 8; ++i)
        ops.push_back(trace::TraceOp::load(0x200, 8)); // hot
    Tick t = r.runSync(ops);
    // Completion still waits for the store, but far less than
    // 8 serialized misses.
    EXPECT_LT(t, 2u * 400u);
    EXPECT_EQ(r.memOps(), 10u);
}

TEST(HostCore, LoadMlpBoundsOutstanding)
{
    HostRig serial;
    HostRig parallel;

    std::vector<trace::TraceOp> ops;
    for (int i = 0; i < 16; ++i)
        ops.push_back(
            trace::TraceOp::load(0x1000 + 0x40u * i, 8)); // misses
    Tick ts = serial.runSync(ops, 1);
    Tick tp = parallel.runSync(ops, 8);
    EXPECT_LT(tp, ts);
}

TEST(HostCoreDeathTest, OverlappingRunsPanic)
{
    HostRig r;
    r.pt.ensureMappedRange(1, 0, 1 << 20);
    std::vector<trace::TraceOp> ops{trace::TraceOp::load(0x100, 8)};
    r.host.run(ops, [] {});
    EXPECT_DEATH(r.host.run(ops, [] {}), "already running");
}

} // namespace
} // namespace fusion::accel
