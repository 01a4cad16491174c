/**
 * @file
 * ACC protocol tests at the shared L1X: leases, write-epoch
 * locking, self-invalidation semantics, MEI integration with the
 * host directory (GTIME-delayed responses), the AX-TLB miss path
 * and AX-RMAP synonym filtering.
 */

#include <gtest/gtest.h>

#include "accel/tile.hh"
#include "test_util.hh"

namespace fusion
{
namespace
{

struct TileRig : test::HostRig
{
    vm::PageTable pt;
    accel::TileParams tp;
    std::unique_ptr<accel::FusionTile> tile;
    // A host-side L1 registered BEFORE the tile so the tile is
    // agent 1, as in the full system.
    interconnect::Link hostLink;
    host::HostL1 hostL1;

    explicit TileRig(accel::TileParams params = makeParams())
        : hostLink(ctx,
                   interconnect::LinkParams{
                       "hostl1_l2", energy::LinkClass::HostL1ToL2,
                       2, "t.h", "t.h"}),
          hostL1(ctx, host::HostL1Params{}, llc, &hostLink)
    {
        tp = params;
        tile = std::make_unique<accel::FusionTile>(ctx, tp, llc,
                                                   pt);
        pt.ensureMappedRange(1, 0x10000000, 1 << 20);
    }

    static accel::TileParams
    makeParams()
    {
        accel::TileParams p;
        p.numAccels = 2;
        return p;
    }

    /** Synchronous lease request straight at the L1X. */
    Tick
    leaseSync(AccelId who, Addr vline, Cycles lt, bool is_write,
              Tick *granted_end = nullptr)
    {
        bool done = false;
        Tick end = 0;
        tile->l1x().requestLease(
            who, vline, 1, lt, is_write, true,
            [&](const accel::LeaseGrant &g) {
                done = true;
                end = g.leaseEnd;
            });
        ctx.eq.run();
        EXPECT_TRUE(done);
        if (granted_end)
            *granted_end = end;
        return ctx.now();
    }

    void
    hostAccessSync(Addr pa, bool is_write)
    {
        bool done = false;
        hostL1.access(pa, is_write, [&] { done = true; });
        ctx.eq.run();
        EXPECT_TRUE(done);
    }
};

TEST(AccProtocol, ReadLeaseEndsAtNowPlusLt)
{
    TileRig r;
    Tick end = 0;
    r.tile->l1x().requestLease(
        0, 0x10000000, 1, 500, false, true,
        [&](const accel::LeaseGrant &g) { end = g.leaseEnd; });
    // Run only far enough to observe the grant.
    r.ctx.eq.run();
    EXPECT_GT(end, 0u);
    // The lease covers the request processing time + 500.
    EXPECT_LE(end, r.ctx.now() + 500);
}

TEST(AccProtocol, MissFetchesExclusively)
{
    TileRig r;
    r.leaseSync(0, 0x10000000, 500, false);
    Addr pa = r.pt.translate(1, 0x10000000);
    // The tile (agent 1) owns the line even for a *read* lease.
    EXPECT_TRUE(r.llc.isOwner(1, pa));
    EXPECT_EQ(r.tile->l1x().misses(), 1u);
}

TEST(AccProtocol, SecondLeaseHitsWithoutHostTraffic)
{
    TileRig r;
    r.leaseSync(0, 0x10000000, 500, false);
    std::uint64_t llc_reqs = r.ctx.stats.value("llc.requests");
    r.leaseSync(1, 0x10000000, 500, false); // other accelerator
    EXPECT_EQ(r.tile->l1x().hits(), 1u);
    EXPECT_EQ(r.ctx.stats.value("llc.requests"), llc_reqs);
}

TEST(AccProtocol, ReadLeasesCoexist)
{
    TileRig r;
    int grants = 0;
    for (AccelId a : {0, 1}) {
        r.tile->l1x().requestLease(
            a, 0x10000000, 1, 500, false, true,
            [&](const accel::LeaseGrant &) { ++grants; });
    }
    r.ctx.eq.run();
    EXPECT_EQ(grants, 2);
}

TEST(AccProtocol, WriteEpochStallsReadersUntilWriteback)
{
    TileRig r;
    Tick wend = 0;
    r.leaseSync(0, 0x10000000, 500, true, &wend);

    // A reader must stall until the epoch expires AND the dirty
    // writeback arrives.
    bool granted = false;
    r.tile->l1x().requestLease(
        1, 0x10000000, 1, 500, false, true,
        [&](const accel::LeaseGrant &) { granted = true; });
    r.ctx.eq.run();
    // Without a writeback the reader is still stalled.
    EXPECT_FALSE(granted);

    // The producer's self-downgrade writeback releases it.
    r.tile->l1x().writeback(0, 0x10000000, 1);
    r.ctx.eq.run();
    EXPECT_TRUE(granted);
}

TEST(AccProtocol, WritebackMarksLineDirtyAtL1x)
{
    TileRig r;
    r.leaseSync(0, 0x10000000, 500, true);
    r.tile->l1x().writeback(0, 0x10000000, 1);
    r.ctx.eq.run();
    // Host load now forwards to the tile and gets dirty data: the
    // LLC frame ends up dirty.
    Addr pa = r.pt.translate(1, 0x10000000);
    r.hostAccessSync(pa, false);
    EXPECT_TRUE(r.llc.tags().find(pa)->dirty);
}

TEST(AccProtocol, HostDemandStallsUntilGtime)
{
    TileRig r;
    Tick end = 0;
    r.leaseSync(0, 0x10000000, 800, false, &end);
    Addr pa = r.pt.translate(1, 0x10000000);

    // Host store: the directory forwards to the tile; the response
    // (eviction notice) must wait for GTIME expiry (Figure 4).
    Tick t0 = r.ctx.now();
    r.hostAccessSync(pa, true);
    EXPECT_GE(r.ctx.now(), end);
    EXPECT_GT(r.ctx.now(), t0);
    EXPECT_EQ(r.tile->rmap().lookups(), 1u);
    // The tile relinquished the line.
    EXPECT_TRUE(r.llc.isOwner(0, pa));
}

TEST(AccProtocol, ExpiredGtimeRespondsImmediately)
{
    TileRig r;
    Tick end = 0;
    r.leaseSync(0, 0x10000000, 100, false, &end);
    // Let the lease expire by scheduling idle time.
    r.ctx.eq.schedule(end + 500, [] {});
    r.ctx.eq.run();
    Addr pa = r.pt.translate(1, 0x10000000);
    Tick t0 = r.ctx.now();
    r.hostAccessSync(pa, true);
    // No GTIME wait: just the protocol round trips.
    EXPECT_LT(r.ctx.now() - t0, 100u);
}

TEST(AccProtocol, HostDemandForUncachedLineMissesRmap)
{
    TileRig r;
    r.leaseSync(0, 0x10000000, 500, false);
    // Host touches a line the tile never cached.
    Addr pa = r.pt.translate(1, 0x10040000);
    r.hostAccessSync(pa, true);
    // The forward never reaches the tile (directory is precise), so
    // the RMAP is not probed.
    EXPECT_EQ(r.tile->rmap().lookups(), 0u);
}

TEST(AccProtocol, TlbSitsOnTheMissPathOnly)
{
    TileRig r;
    r.leaseSync(0, 0x10000000, 500, false);
    r.leaseSync(1, 0x10000000, 500, false);
    r.leaseSync(0, 0x10000000, 500, false);
    // Three lease requests, one L1X miss -> exactly one TLB lookup
    // (Section 3.2: translation off the critical path).
    EXPECT_EQ(r.tile->tlb().lookups(), 1u);
}

TEST(AccProtocol, LeasedLinesAreNotEvictable)
{
    accel::TileParams p = TileRig::makeParams();
    p.l1x.capacityBytes = 2 * kLineBytes;
    p.l1x.assoc = 1; // 2 sets
    TileRig r(p);
    // Lease line A (set 0) with a long lease.
    Tick endA = 0;
    r.leaseSync(0, 0x10000000, 5000, false, &endA);
    // Request a conflicting line (same set): the fill must wait for
    // A's lease to expire before stealing the frame.
    Tick t = r.leaseSync(0, 0x10000080, 300, false);
    EXPECT_GE(t, endA);
    EXPECT_GT(r.ctx.stats.value("l1x.frame_retries"), 0u);
}

TEST(AccProtocol, EvictionWritesBackDirtyLines)
{
    accel::TileParams p = TileRig::makeParams();
    p.l1x.capacityBytes = 2 * kLineBytes;
    p.l1x.assoc = 1;
    TileRig r(p);
    Tick wend = 0;
    r.leaseSync(0, 0x10000000, 100, true, &wend);
    r.tile->l1x().writeback(0, 0x10000000, 1);
    r.ctx.eq.run();
    // Conflict-evict the dirty line after its lease expires.
    r.leaseSync(0, 0x10000080, 100, false);
    r.drain();
    Addr pa = r.pt.translate(1, 0x10000000);
    // The LLC received the dirty writeback (PUTX).
    EXPECT_FALSE(r.llc.isOwner(1, pa));
    EXPECT_TRUE(r.llc.tags().find(pa)->dirty);
}

TEST(AccProtocol, SynonymDuplicateIsEvicted)
{
    TileRig r;
    // Map a synonym: two VAs, one PA.
    r.pt.alias(1, 0x20000000, 0x10000000);
    r.leaseSync(0, 0x10000000, 500, false);
    r.leaseSync(0, 0x20000000, 500, false);
    // Only one synonym may stay resident (Appendix).
    EXPECT_EQ(r.ctx.stats.value("l1x.synonym_evictions"), 1u);
    EXPECT_EQ(r.tile->rmap().size(), 1u);
}

TEST(AccProtocol, LeaseTransferLocksUntilConsumerWriteback)
{
    TileRig r;
    r.leaseSync(0, 0x10000000, 100, false);
    // Simulate a FUSION-Dx dirty transfer to accel 1 ending later.
    Tick end = r.ctx.now() + 400;
    r.tile->l1x().leaseTransfer(0x10000000, 1, end, true);
    bool granted = false;
    r.tile->l1x().requestLease(
        0, 0x10000000, 1, 100, false, true,
        [&](const accel::LeaseGrant &) { granted = true; });
    r.ctx.eq.run();
    EXPECT_FALSE(granted); // locked
    r.tile->l1x().writeback(1, 0x10000000, 1);
    r.ctx.eq.run();
    EXPECT_TRUE(granted);
}

TEST(AccProtocol, CleanLeaseTransferDoesNotLock)
{
    TileRig r;
    r.leaseSync(0, 0x10000000, 100, false);
    r.tile->l1x().leaseTransfer(0x10000000, 1,
                                r.ctx.now() + 400, false);
    bool granted = false;
    r.tile->l1x().requestLease(
        0, 0x10000000, 1, 100, false, true,
        [&](const accel::LeaseGrant &) { granted = true; });
    r.ctx.eq.run();
    EXPECT_TRUE(granted);
}

TEST(AccProtocol, WriteThroughStoreDirtiesL1x)
{
    TileRig r;
    r.leaseSync(0, 0x10000000, 500, false);
    r.tile->l1x().writeThroughStore(0, 0x10000000, 1);
    r.ctx.eq.run();
    Addr pa = r.pt.translate(1, 0x10000000);
    r.hostAccessSync(pa, false);
    EXPECT_TRUE(r.llc.tags().find(pa)->dirty);
}

} // namespace
} // namespace fusion
