/**
 * @file
 * Oracle DMA engine tests: fill/drain state machine, coherence of
 * transfers and accounting.
 */

#include <gtest/gtest.h>

#include "accel/dma_engine.hh"
#include "test_util.hh"

namespace fusion
{
namespace
{

struct DmaRig : test::L1Rig
{
    vm::PageTable pt;
    mem::Scratchpad spm;
    interconnect::Link dmaLink;
    accel::DmaEngine dma;

    DmaRig()
        : spm(ctx, 4096, "spm"),
          dmaLink(ctx,
                  interconnect::LinkParams{
                      "dma", energy::LinkClass::L1xToL2, 7,
                      energy::comp::kLinkL1xL2Msg,
                      energy::comp::kLinkL1xL2Data}),
          dma(ctx, accel::DmaParams{2}, llc, &dmaLink, pt)
    {
        pt.ensureMappedRange(1, 0x10000000, 1 << 20);
    }

    std::vector<Addr>
    lines(int n, Addr base = 0x10000000)
    {
        std::vector<Addr> v;
        for (int i = 0; i < n; ++i)
            v.push_back(base + static_cast<Addr>(i) * kLineBytes);
        return v;
    }
};

TEST(DmaEngine, FillTransfersEveryLine)
{
    DmaRig r;
    bool done = false;
    auto ls = r.lines(8);
    r.dma.fill(ls, 1, r.spm, [&] { done = true; });
    EXPECT_EQ(r.dma.state(), accel::DmaState::Fill);
    r.drain();
    EXPECT_TRUE(done);
    EXPECT_EQ(r.dma.state(), accel::DmaState::Idle);
    EXPECT_EQ(r.dma.lineTransfers(), 8u);
    EXPECT_EQ(r.dma.bytesTransferred(), 8u * kLineBytes);
    EXPECT_EQ(r.dma.dmaOps(), 1u);
}

TEST(DmaEngine, EmptyWindowCompletesWithoutTraffic)
{
    DmaRig r;
    bool done = false;
    std::vector<Addr> none;
    r.dma.fill(none, 1, r.spm, [&] { done = true; });
    EXPECT_TRUE(done);
    EXPECT_EQ(r.dma.lineTransfers(), 0u);
}

TEST(DmaEngine, DrainMakesDataVisibleAtLlc)
{
    DmaRig r;
    bool done = false;
    auto ls = r.lines(4);
    r.dma.drain(ls, 1, r.spm, [&] { done = true; });
    r.drain();
    EXPECT_TRUE(done);
    for (Addr va : ls) {
        Addr pa = r.pt.translate(1, va);
        ASSERT_NE(r.llc.tags().find(pa), nullptr);
        EXPECT_TRUE(r.llc.tags().find(pa)->dirty);
    }
}

static void
accessSyncHelper(DmaRig &r, Addr pa)
{
    bool done = false;
    r.l1.access(pa, true, [&] { done = true; });
    r.ctx.eq.run();
    ASSERT_TRUE(done);
}

TEST(DmaEngine, FillSnoopsDirtyHostData)
{
    DmaRig r;
    // Host dirties a line in its L1.
    Addr va = 0x10000000;
    Addr pa = r.pt.translate(1, va);
    accessSyncHelper(r, pa);
    bool done = false;
    std::vector<Addr> one{va};
    r.dma.fill(one, 1, r.spm, [&] { done = true; });
    r.drain();
    EXPECT_TRUE(done);
    // The host L1 received a FwdGetS and the LLC got the dirty data.
    EXPECT_TRUE(r.llc.tags().find(pa)->dirty);
    EXPECT_EQ(r.llc.fwdsToAgent(0), 1u);
}

TEST(DmaEngine, DrainInvalidatesStaleHostCopies)
{
    DmaRig r;
    Addr va = 0x10000040;
    Addr pa = r.pt.translate(1, va);
    accessSyncHelper(r, pa);
    ASSERT_TRUE(r.llc.isOwner(0, pa));
    bool done = false;
    std::vector<Addr> one{va};
    r.dma.drain(one, 1, r.spm, [&] { done = true; });
    r.drain();
    EXPECT_TRUE(done);
    EXPECT_FALSE(r.llc.isOwner(0, pa));
}

TEST(DmaEngine, OutstandingTransfersAreBounded)
{
    DmaRig r;
    // With depth 2, 8 transfers cannot all be in flight: completion
    // takes at least 4 serial LLC round trips.
    bool done = false;
    auto ls = r.lines(8);
    Tick t0 = r.ctx.now();
    r.dma.fill(ls, 1, r.spm, [&] { done = true; });
    r.drain();
    EXPECT_TRUE(done);
    // Lower bound: 4 rounds x (bank latency 12) at minimum.
    EXPECT_GE(r.ctx.now() - t0, 4u * 12);
}

TEST(DmaEngine, ScratchpadSideBooked)
{
    DmaRig r;
    bool done = false;
    auto ls = r.lines(3);
    r.dma.fill(ls, 1, r.spm, [&] { done = true; });
    r.drain();
    EXPECT_EQ(r.ctx.stats.value("spm.dma_line_xfers"), 3u);
}

TEST(DmaEngineDeathTest, OverlappingOperationsPanic)
{
    DmaRig r;
    auto ls = r.lines(4);
    r.dma.fill(ls, 1, r.spm, [] {});
    EXPECT_DEATH(r.dma.drain(ls, 1, r.spm, [] {}), "busy");
}

} // namespace
} // namespace fusion
