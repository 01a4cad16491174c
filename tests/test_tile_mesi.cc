/**
 * @file
 * Tests for the conventional intra-tile MESI alternative
 * (FUSION-MESI): protocol state machine at the tile directory and
 * end-to-end equivalence of results with the ACC tile.
 */

#include <gtest/gtest.h>

#include "accel/tile_mesi.hh"
#include "core/runner.hh"
#include "test_util.hh"

namespace fusion
{
namespace
{

struct MesiTileRig : test::HostRig
{
    vm::PageTable pt;
    std::unique_ptr<accel::MesiTile> tile;

    MesiTileRig()
    {
        tile = std::make_unique<accel::MesiTile>(
            ctx, 2, 4096, 4, accel::L1xParams{}, llc, pt);
        pt.ensureMappedRange(1, 0x10000000, 1 << 20);
        tile->l0x(0).setPid(1);
        tile->l0x(1).setPid(1);
    }

    void
    accessSync(AccelId a, Addr va, bool is_write)
    {
        bool done = false;
        tile->l0x(a).access(va, 8, is_write, [&] { done = true; });
        while (!done && ctx.eq.step()) {
        }
        EXPECT_TRUE(done);
    }
};

TEST(TileMesi, MissThenHitNoLeaseExpiry)
{
    MesiTileRig r;
    r.accessSync(0, 0x10000000, false);
    EXPECT_EQ(r.tile->l0x(0).misses(), 1u);
    // Unlike ACC, the copy never self-invalidates: still a hit far
    // in the future.
    r.ctx.eq.schedule(r.ctx.now() + 1000000, [] {});
    r.ctx.eq.run();
    r.accessSync(0, 0x10000000, false);
    EXPECT_EQ(r.tile->l0x(0).hits(), 1u);
    EXPECT_EQ(r.tile->l0x(0).misses(), 1u);
}

TEST(TileMesi, GuardSnapshotNamesInFlightMiss)
{
    // A watchdog dump of a FUSION-MESI run names the tile's caches:
    // a miss in flight shows at its L0X and at the L1X directory.
    MesiTileRig r;
    bool done = false;
    r.tile->l0x(0).access(0x10000000, 8, false, [&] { done = true; });
    std::string snap;
    while (!done && r.ctx.eq.step()) {
        std::string s = r.ctx.guard.renderSnapshot();
        if (s.find("l1x: outstanding=1") != std::string::npos) {
            snap = s;
            break;
        }
    }
    EXPECT_NE(snap.find("l1x: outstanding=1 mshrs=1 busy=1 deferred=0 "
                        "frame_retries=0"),
              std::string::npos)
        << snap;
    EXPECT_NE(snap.find("axc0.l0x: outstanding=1 mshrs=1"),
              std::string::npos)
        << snap;
    r.ctx.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(r.ctx.guard.outstandingTotal(), 0u);
}

TEST(TileMesi, SecondReaderDowngradesOwner)
{
    MesiTileRig r;
    r.accessSync(0, 0x10000000, true); // M in L0X-0
    r.accessSync(1, 0x10000000, false);
    // The conventional protocol PROBED the owner (ACC never does).
    EXPECT_EQ(r.tile->l0x(0).probes(), 1u);
    // Both can now read without further traffic.
    auto msgs = r.tile->l1x().probesSent();
    r.accessSync(0, 0x10000000, false);
    r.accessSync(1, 0x10000000, false);
    EXPECT_EQ(r.tile->l1x().probesSent(), msgs);
}

TEST(TileMesi, ConcurrentColdReadsBothRecorded)
{
    // Both L0Xs read one cold line at once: L0X-1 parks behind
    // L0X-0's L1X miss, and its downgrade probe of the new owner must
    // arrive after that owner's E grant, not overtake it.
    MesiTileRig r;
    int done = 0;
    r.tile->l0x(0).access(0x10000000, 8, false, [&] { ++done; });
    r.tile->l0x(1).access(0x10000000, 8, false, [&] { ++done; });
    r.ctx.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(r.ctx.stats.value("l1x.deferred"), 1u);
    EXPECT_EQ(r.tile->l0x(0).probes(), 1u);
    for (AccelId a : {0, 1}) {
        const mem::CacheLine *l =
            r.tile->l0x(a).tags().find(0x10000000, 1);
        ASSERT_NE(l, nullptr) << a;
        EXPECT_EQ(l->mesi, mem::MesiState::S) << a;
    }
    EXPECT_TRUE(r.ctx.guard.runInvariants(r.ctx.now(), true).empty());
    // Both copies are recorded, so a write still invalidates L0X-0.
    r.accessSync(1, 0x10000000, true);
    EXPECT_EQ(r.tile->l0x(0).tags().find(0x10000000, 1), nullptr);
    EXPECT_TRUE(r.ctx.guard.runInvariants(r.ctx.now(), true).empty());
}

TEST(TileMesi, WriterInvalidatesSharers)
{
    MesiTileRig r;
    r.accessSync(0, 0x10000000, false);
    r.accessSync(1, 0x10000000, false); // both S
    r.accessSync(0, 0x10000000, true);  // upgrade: invalidate 1
    EXPECT_GE(r.tile->l0x(1).probes(), 1u);
    // L0X-1's next read misses again (it was invalidated).
    auto misses = r.tile->l0x(1).misses();
    r.accessSync(1, 0x10000000, false);
    EXPECT_EQ(r.tile->l0x(1).misses(), misses + 1);
}

TEST(TileMesi, PingPongCostsProbesEveryRound)
{
    MesiTileRig r;
    for (int round = 0; round < 4; ++round) {
        r.accessSync(0, 0x10000000, true);
        r.accessSync(1, 0x10000000, true);
    }
    // Every ownership handoff probed the previous owner: the
    // invalidation traffic ACC's leases avoid.
    EXPECT_GE(r.tile->l1x().probesSent(), 7u);
}

TEST(TileMesi, HostDemandProbesTheL0xs)
{
    MesiTileRig r;
    interconnect::Link host_link(
        r.ctx, interconnect::LinkParams{
                   "hostl1_l2", energy::LinkClass::HostL1ToL2, 2,
                   "t.h", "t.h"});
    host::HostL1 host_l1(r.ctx, host::HostL1Params{}, r.llc,
                         &host_link);
    r.accessSync(0, 0x10000000, true); // dirty in tile
    Addr pa = r.pt.translate(1, 0x10000000);
    bool done = false;
    host_l1.access(pa, true, [&] { done = true; });
    r.ctx.eq.run();
    EXPECT_TRUE(done);
    // The host demand reached into the L0X (ACC answers from the
    // L1X's GTIME instead).
    EXPECT_GE(r.tile->l0x(0).probes(), 1u);
    EXPECT_TRUE(r.llc.tags().find(pa)->dirty);
}

TEST(TileMesi, EndToEndAllWorkloads)
{
    for (const auto &name : workloads::workloadNames()) {
        trace::Program p =
            *core::buildProgram(name, workloads::Scale::Small);
        core::RunResult r = core::runProgram(
            core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
                core::SystemKind::FusionMesi),
            p);
        EXPECT_GT(r.accelCycles, 0u) << name;
        EXPECT_EQ(r.funcCycles.size(), p.functions.size()) << name;
        EXPECT_GT(r.l0xFills, 0u) << name;
        EXPECT_EQ(r.axTlbLookups, r.l1xMisses) << name;
    }
}

TEST(TileMesi, OverlapAmplifiesMesiTraffic)
{
    // Under concurrency, write sharing ping-pongs between L0Xs in
    // MESI while ACC serializes at the L1X without probes.
    trace::Program p =
        *core::buildProgram("disparity", workloads::Scale::Small);
    auto run = [&](core::SystemKind k, bool overlap) {
        auto cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, k);
        cfg.overlapInvocations = overlap;
        return core::runProgram(cfg, p);
    };
    core::RunResult serial =
        run(core::SystemKind::FusionMesi, false);
    core::RunResult overlap =
        run(core::SystemKind::FusionMesi, true);
    EXPECT_LE(overlap.accelCycles, serial.accelCycles);
    EXPECT_GT(overlap.accelCycles, 0u);
}

TEST(TileMesi, DeterministicRuns)
{
    trace::Program p =
        *core::buildProgram("adpcm", workloads::Scale::Small);
    auto cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
        core::SystemKind::FusionMesi);
    core::RunResult a = core::runProgram(cfg, p);
    core::RunResult b = core::runProgram(cfg, p);
    EXPECT_EQ(a.accelCycles, b.accelCycles);
    EXPECT_DOUBLE_EQ(a.totalPj(), b.totalPj());
}

} // namespace
} // namespace fusion
