/**
 * @file
 * Unit tests for interconnect links and message accounting.
 */

#include <gtest/gtest.h>

#include "interconnect/link.hh"

namespace fusion::interconnect
{
namespace
{

Link
makeLink(SimContext &ctx, energy::LinkClass cls, Cycles lat = 3)
{
    return Link(ctx, LinkParams{"test_link", cls, lat, "test.msg",
                                "test.data"});
}

TEST(Message, SizesAndFlits)
{
    EXPECT_EQ(messageBytes(MsgClass::Control), 8u);
    EXPECT_EQ(messageBytes(MsgClass::Word), 16u);
    EXPECT_EQ(messageBytes(MsgClass::Data), 72u);
    EXPECT_EQ(messageFlits(MsgClass::Control), 1u);
    EXPECT_EQ(messageFlits(MsgClass::Word), 2u);
    EXPECT_EQ(messageFlits(MsgClass::Data), 9u);
}

TEST(Link, DeliveryAfterLatency)
{
    SimContext ctx;
    auto link = makeLink(ctx, energy::LinkClass::AxcToL1x, 5);
    Tick delivered = 0;
    link.send(MsgClass::Control, link.latency(),
              [&] { delivered = ctx.now(); });
    ctx.eq.run();
    EXPECT_EQ(delivered, 5u);
}

TEST(Link, EnergySplitsByTrafficClass)
{
    SimContext ctx;
    auto link = makeLink(ctx, energy::LinkClass::AxcToL1x);
    link.book(MsgClass::Control);
    link.book(MsgClass::Data);
    // 0.4 pJ/B: control 8B, data 72B.
    EXPECT_DOUBLE_EQ(ctx.energy.total("test.msg"), 8 * 0.4);
    EXPECT_DOUBLE_EQ(ctx.energy.total("test.data"), 72 * 0.4);
}

TEST(Link, WordCountsAsDataTraffic)
{
    SimContext ctx;
    auto link = makeLink(ctx, energy::LinkClass::AxcToL1x);
    link.book(MsgClass::Word);
    EXPECT_EQ(link.dataMessages(), 1u);
    EXPECT_DOUBLE_EQ(ctx.energy.total("test.data"), 16 * 0.4);
}

TEST(Link, FlitAndByteCounters)
{
    SimContext ctx;
    auto link = makeLink(ctx, energy::LinkClass::L1xToL2);
    for (int i = 0; i < 3; ++i)
        link.book(MsgClass::Control);
    for (int i = 0; i < 2; ++i)
        link.book(MsgClass::Data);
    EXPECT_EQ(link.controlMessages(), 3u);
    EXPECT_EQ(link.dataMessages(), 2u);
    EXPECT_EQ(link.totalFlits(), 3u * 1 + 2u * 9);
    EXPECT_EQ(link.totalBytes(), 3u * 8 + 2u * 72);
}

TEST(Link, ExpensiveHostLinkCostsMore)
{
    SimContext ctx;
    auto tile = makeLink(ctx, energy::LinkClass::AxcToL1x);
    tile.book(MsgClass::Data);
    double tile_pj = ctx.energy.grandTotal();
    ctx.energy.reset();
    auto host = makeLink(ctx, energy::LinkClass::L1xToL2);
    host.book(MsgClass::Data);
    // 6 pJ/B vs 0.4 pJ/B: 15x.
    EXPECT_DOUBLE_EQ(ctx.energy.grandTotal(), tile_pj * 15.0);
}

} // namespace
} // namespace fusion::interconnect
