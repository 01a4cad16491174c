/**
 * @file
 * L0X private-cache tests: lease-based self-invalidation, write
 * caching with self-downgrade, write-through mode and FUSION-Dx
 * forwarding behaviour.
 */

#include <gtest/gtest.h>

#include "accel/tile.hh"
#include "test_util.hh"

namespace fusion
{
namespace
{

struct L0xRig : test::HostRig
{
    vm::PageTable pt;
    std::unique_ptr<accel::FusionTile> tile;

    explicit L0xRig(bool write_through = false, bool dx = false)
    {
        accel::TileParams p;
        p.numAccels = 2;
        p.writeThrough = write_through;
        p.enableDx = dx;
        tile = std::make_unique<accel::FusionTile>(ctx, p, llc, pt);
        pt.ensureMappedRange(1, 0x10000000, 1 << 20);
        tile->l0x(0).setFunction(500, 1);
        tile->l0x(1).setFunction(500, 1);
    }

    Tick
    accessSync(AccelId a, Addr va, bool is_write)
    {
        bool done = false;
        tile->l0x(a).access(va, 8, is_write, [&] { done = true; });
        // Step minimally: draining the whole queue would run past
        // lease expiries and fire self-downgrades between accesses.
        while (!done && ctx.eq.step()) {
        }
        EXPECT_TRUE(done);
        return ctx.now();
    }
};

TEST(L0x, MissThenHitWithinLease)
{
    L0xRig r;
    r.accessSync(0, 0x10000000, false);
    EXPECT_EQ(r.tile->l0x(0).misses(), 1u);
    r.accessSync(0, 0x10000008, false); // same line
    EXPECT_EQ(r.tile->l0x(0).hits(), 1u);
}

TEST(L0x, SelfInvalidationAfterLeaseExpiry)
{
    L0xRig r;
    r.accessSync(0, 0x10000000, false);
    // Idle past the lease.
    r.ctx.eq.schedule(r.ctx.now() + 2000, [] {});
    r.ctx.eq.run();
    r.accessSync(0, 0x10000000, false);
    // The expired line is a miss: self-invalidation needs no
    // invalidate messages.
    EXPECT_EQ(r.tile->l0x(0).misses(), 2u);
}

TEST(L0x, LeaseRenewalRefetchesData)
{
    L0xRig r;
    r.accessSync(0, 0x10000000, false);
    std::uint64_t data_before = r.tile->tileLink().dataMessages();
    std::uint64_t l1x_miss_before = r.tile->l1x().misses();
    r.ctx.eq.schedule(r.ctx.now() + 2000, [] {});
    r.ctx.eq.run();
    r.accessSync(0, 0x10000000, false); // expired: re-lease
    // Self-invalidation means the renewal must re-fetch the line
    // (another accelerator may have written it meanwhile) — this
    // is exactly the pull-based request/data traffic of Lesson 4.
    EXPECT_EQ(r.tile->tileLink().dataMessages(), data_before + 1);
    // ...but it stays within the tile: no host traffic.
    EXPECT_EQ(r.tile->l1x().misses(), l1x_miss_before);
}

TEST(L0x, WriteCachingCoalescesStoresLocally)
{
    L0xRig r;
    r.accessSync(0, 0x10000000, true);
    std::uint64_t wb_before = r.tile->l0x(0).writebacksSent();
    // 16 more stores to the same line within the epoch.
    for (int i = 1; i < 16; ++i)
        r.accessSync(0, 0x10000000 + 4u * i, true);
    EXPECT_EQ(r.tile->l0x(0).hits(), 15u);
    EXPECT_EQ(r.tile->l0x(0).writebacksSent(), wb_before);
}

TEST(L0x, SelfDowngradeWritesBackAtEpochEnd)
{
    L0xRig r;
    r.accessSync(0, 0x10000000, true);
    EXPECT_EQ(r.tile->l0x(0).writebacksSent(), 0u);
    // Run past the epoch: the downgrade sweep fires by timestamp.
    r.ctx.eq.schedule(r.ctx.now() + 2000, [] {});
    r.ctx.eq.run();
    EXPECT_EQ(r.tile->l0x(0).writebacksSent(), 1u);
    // Downgrade used the filtered sweep, not a full-cache scan per
    // line: exactly one sweep sufficed.
    EXPECT_GE(r.ctx.stats.value("axc0.l0x.downgrade_sweeps"), 1u);
}

TEST(L0x, DirtyEvictionWritesBackEarly)
{
    L0xRig r;
    // Fill one set (16 sets, 4 ways): lines with stride numSets*64.
    Addr base = 0x10000000;
    Addr stride = 16 * kLineBytes;
    r.accessSync(0, base, true);
    for (int w = 1; w <= 4; ++w)
        r.accessSync(0, base + stride * w, false);
    // The dirty line was evicted by the 5th fill -> early writeback
    // before its epoch expired.
    EXPECT_EQ(r.tile->l0x(0).writebacksSent(), 1u);
}

TEST(L0x, WriteThroughSendsEveryStore)
{
    L0xRig r(/*write_through=*/true);
    std::uint64_t data_before = r.tile->tileLink().dataMessages();
    for (int i = 0; i < 8; ++i)
        r.accessSync(0, 0x10000000 + 8u * i, true);
    // 8 stores -> 8 data messages on the tile link (Table 4).
    EXPECT_EQ(r.tile->tileLink().dataMessages() - data_before, 8u);
    EXPECT_EQ(r.tile->l0x(0).writebacksSent(), 0u);
}

TEST(L0x, ForwardMovesDirtyLineToConsumer)
{
    L0xRig r(false, /*dx=*/true);
    r.accessSync(0, 0x10000000, true); // dirty in producer
    std::unordered_map<Addr, accel::L0x *> targets{
        {0x10000000, &r.tile->l0x(1)}};
    r.tile->l0x(0).setForwardTargets(&targets);
    r.tile->finishInvocation(0);
    r.ctx.eq.runUntil(r.ctx.now() + 100);
    EXPECT_EQ(r.tile->l0x(0).forwardsOut(), 1u);
    // Consumer hits the pushed line without an L1X request.
    std::uint64_t l1x_reads_before = r.ctx.stats.value("l1x.reads");
    r.accessSync(1, 0x10000008, false);
    EXPECT_EQ(r.tile->l0x(1).hits(), 1u);
    EXPECT_EQ(r.ctx.stats.value("l1x.reads"), l1x_reads_before);
    // Write responsibility moved: the consumer eventually writes
    // the line back.
    r.ctx.eq.schedule(r.ctx.now() + 2000, [] {});
    r.ctx.eq.run();
    EXPECT_EQ(r.tile->l0x(1).writebacksSent(), 1u);
    EXPECT_EQ(r.tile->l0x(0).writebacksSent(), 0u);
}

TEST(L0x, ForwardUsesCheapLink)
{
    L0xRig r(false, true);
    r.accessSync(0, 0x10000000, true);
    std::unordered_map<Addr, accel::L0x *> targets{
        {0x10000000, &r.tile->l0x(1)}};
    r.tile->l0x(0).setForwardTargets(&targets);
    double fwd_before =
        r.ctx.energy.total(energy::comp::kLinkL0xL0x);
    r.tile->finishInvocation(0);
    r.ctx.eq.runUntil(r.ctx.now() + 100);
    // 72 bytes at 0.1 pJ/B.
    EXPECT_DOUBLE_EQ(
        r.ctx.energy.total(energy::comp::kLinkL0xL0x) - fwd_before,
        72 * 0.1);
}

TEST(L0x, CleanPlannedLinesAreAlsoPushed)
{
    L0xRig r(false, true);
    r.accessSync(0, 0x10000000, false); // clean read
    std::unordered_map<Addr, accel::L0x *> targets{
        {0x10000000, &r.tile->l0x(1)}};
    r.tile->l0x(0).setForwardTargets(&targets);
    r.tile->finishInvocation(0);
    r.ctx.eq.runUntil(r.ctx.now() + 100);
    EXPECT_EQ(r.tile->l0x(0).forwardsOut(), 1u);
    // Consumer hit, and nobody owes a writeback.
    r.accessSync(1, 0x10000000, false);
    EXPECT_EQ(r.tile->l0x(1).hits(), 1u);
    r.ctx.eq.schedule(r.ctx.now() + 2000, [] {});
    r.ctx.eq.run();
    EXPECT_EQ(r.tile->l0x(1).writebacksSent(), 0u);
}

TEST(L0x, ForwardFallsBackWhenConsumerIsFull)
{
    L0xRig r(false, true);
    // Long epochs so the consumer's dirty fills stay dirty across
    // the cold-miss latencies of this sequence.
    r.tile->l0x(0).setFunction(50000, 1);
    r.tile->l0x(1).setFunction(50000, 1);
    // Fill every way of the consumer's target set with dirty lines.
    Addr base = 0x10000000;
    Addr stride = 16 * kLineBytes;
    for (int w = 0; w < 4; ++w)
        r.accessSync(1, base + stride * w, true);
    // Producer dirties a line mapping to the same consumer set.
    Addr line = base + stride * 8;
    r.accessSync(0, line, true);
    std::unordered_map<Addr, accel::L0x *> targets{
        {line, &r.tile->l0x(1)}};
    r.tile->l0x(0).setForwardTargets(&targets);
    r.tile->finishInvocation(0);
    r.ctx.eq.runUntil(r.ctx.now() + 100);
    // No forward: the producer degraded to a normal writeback.
    EXPECT_EQ(r.tile->l0x(0).forwardsOut(), 0u);
    EXPECT_EQ(r.tile->l0x(0).writebacksSent(), 1u);
}

TEST(L0x, PidTagsKeepProcessesApart)
{
    L0xRig r;
    r.pt.ensureMappedRange(2, 0x10000000, 1 << 16);
    r.accessSync(0, 0x10000000, false); // pid 1
    r.tile->l0x(0).setFunction(500, 2);
    r.accessSync(0, 0x10000000, false); // pid 2: must miss
    EXPECT_EQ(r.tile->l0x(0).misses(), 2u);
}

} // namespace
} // namespace fusion
