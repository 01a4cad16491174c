/**
 * @file
 * Host L1 MESI controller tests: hit/miss state machine, upgrades,
 * evictions and forwarded-demand handling.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace fusion
{
namespace
{

TEST(HostL1, LoadMissThenHit)
{
    test::L1Rig r;
    r.accessSync(0x1000, false);
    EXPECT_EQ(r.l1.misses(), 1u);
    EXPECT_EQ(r.l1.hits(), 0u);
    r.accessSync(0x1000, false);
    r.accessSync(0x1020, false); // same line
    EXPECT_EQ(r.l1.hits(), 2u);
    EXPECT_EQ(r.l1.misses(), 1u);
}

TEST(HostL1, SoleLoadGetsExclusiveSilentUpgrade)
{
    test::L1Rig r;
    r.accessSync(0x1000, false);
    // E state: a store hits without another coherence request.
    auto before = r.l1.misses();
    r.accessSync(0x1000, true);
    EXPECT_EQ(r.l1.misses(), before);
    EXPECT_TRUE(r.llc.isOwner(0, 0x1000));
}

TEST(HostL1, StoreMissTakesExclusive)
{
    test::L1Rig r;
    r.accessSync(0x2000, true);
    EXPECT_TRUE(r.llc.isOwner(0, 0x2000));
    r.accessSync(0x2000, false); // load hits the M line
    EXPECT_EQ(r.l1.hits(), 1u);
}

TEST(HostL1, CapacityEvictionWritesBackDirtyLine)
{
    host::HostL1Params p;
    p.capacityBytes = 2 * kLineBytes;
    p.assoc = 1; // two-set direct mapped
    test::L1Rig r(p);
    r.accessSync(0x0, true); // set 0, dirty
    r.accessSync(2 * kLineBytes, false); // set 0 again -> evict
    r.drain();
    // Ownership returned to the directory; LLC has the dirty data.
    EXPECT_FALSE(r.llc.isOwner(0, 0x0));
    EXPECT_TRUE(r.llc.tags().find(0x0)->dirty);
}

TEST(HostL1, CleanEvictionSendsNotice)
{
    host::HostL1Params p;
    p.capacityBytes = 2 * kLineBytes;
    p.assoc = 1;
    test::L1Rig r(p);
    r.accessSync(0x0, false);
    r.accessSync(2 * kLineBytes, false);
    r.drain();
    EXPECT_FALSE(r.llc.isOwner(0, 0x0));
    EXPECT_FALSE(r.llc.isSharer(0, 0x0));
}

TEST(HostL1, ConcurrentMissesToOneLineMerge)
{
    test::L1Rig r;
    int done = 0;
    r.l1.access(0x3000, false, [&] { ++done; });
    r.l1.access(0x3008, false, [&] { ++done; });
    r.l1.access(0x3010, false, [&] { ++done; });
    r.drain();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(r.l1.misses(), 3u);
    // Only one LLC request was issued for the line.
    EXPECT_EQ(r.ctx.stats.value("llc.requests"), 1u);
}

TEST(HostL1, FlushAllReturnsEverything)
{
    test::L1Rig r;
    r.accessSync(0x1000, true);
    r.accessSync(0x2000, false);
    r.l1.flushAll();
    r.drain();
    EXPECT_FALSE(r.llc.isOwner(0, 0x1000));
    EXPECT_FALSE(r.llc.isOwner(0, 0x2000));
    // Next access misses again.
    auto before = r.l1.misses();
    r.accessSync(0x1000, false);
    EXPECT_EQ(r.l1.misses(), before + 1);
}

/** Two MESI L1s on one LLC: agents 0 (a) and 1 (b). */
struct TwoL1Rig : test::HostRig
{
    interconnect::Link la{ctx, {"la", energy::LinkClass::HostL1ToL2, 2,
                                "t.a", "t.a"}};
    interconnect::Link lb{ctx, {"lb", energy::LinkClass::HostL1ToL2, 2,
                                "t.b", "t.b"}};
    host::HostL1 a{ctx, params("l1a"), llc, &la};
    host::HostL1 b{ctx, params("l1b"), llc, &lb};

    static host::HostL1Params
    params(const char *name)
    {
        host::HostL1Params p;
        p.name = name;
        return p;
    }

    void
    sync(host::HostL1 &c, Addr addr, bool w)
    {
        bool done = false;
        c.access(addr, w, [&] { done = true; });
        ctx.eq.run();
        EXPECT_TRUE(done);
    }
};

TEST(HostL1, TwoL1sPingPongALine)
{
    // Two MESI L1s exchanging a dirty line through the directory.
    TwoL1Rig r;
    for (int round = 0; round < 4; ++round) {
        r.sync(r.a, 0x4000, true);
        r.sync(r.b, 0x4000, true);
    }
    // Ownership ends at b; a was invalidated each round.
    EXPECT_TRUE(r.llc.isOwner(1, 0x4000));
    EXPECT_FALSE(r.llc.isOwner(0, 0x4000));
    EXPECT_GE(r.llc.fwdsToAgent(0), 4u);
}

TEST(HostL1, ConcurrentColdReadsBothRecorded)
{
    // The LLC's twin of TileMesi.ConcurrentColdReadsBothRecorded:
    // both L1s load one cold line at once, so b parks behind a's
    // miss. Llc::respond finishes a's transaction before it sends
    // a's grant, but b's parked request re-enters through arrive()
    // and pays the bank access first, so its downgrade probe of a
    // leaves after a's grant.
    TwoL1Rig r;
    int done = 0;
    r.a.access(0x6000, false, [&] { ++done; });
    r.b.access(0x6000, false, [&] { ++done; });
    r.ctx.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(r.ctx.stats.value("llc.deferred"), 1u);
    EXPECT_TRUE(r.llc.isSharer(0, 0x6000));
    EXPECT_TRUE(r.llc.isSharer(1, 0x6000));
    EXPECT_TRUE(r.ctx.guard.runInvariants(r.ctx.now(), true).empty());
    // Both copies are recorded, so b's store still invalidates a.
    r.sync(r.b, 0x6000, true);
    EXPECT_TRUE(r.llc.isOwner(1, 0x6000));
    EXPECT_FALSE(r.llc.isSharer(0, 0x6000));
    auto before = r.a.misses();
    r.sync(r.a, 0x6000, false);
    EXPECT_EQ(r.a.misses(), before + 1);
    EXPECT_TRUE(r.ctx.guard.runInvariants(r.ctx.now(), true).empty());
}

TEST(HostL1, SharedLoadThenUpgradeInvalidatesPeer)
{
    TwoL1Rig r;
    r.sync(r.a, 0x5000, false);
    r.sync(r.b, 0x5000, false); // both sharers
    r.sync(r.a, 0x5000, true);  // upgrade
    EXPECT_TRUE(r.llc.isOwner(0, 0x5000));
    EXPECT_FALSE(r.llc.isSharer(1, 0x5000));
    // b's next load misses (its copy was invalidated).
    auto before = r.b.misses();
    r.sync(r.b, 0x5000, false);
    EXPECT_EQ(r.b.misses(), before + 1);
}

} // namespace
} // namespace fusion
