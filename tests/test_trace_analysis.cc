/**
 * @file
 * Trace analysis tests: profiles, footprints, DMA windowing and the
 * FUSION-Dx forwarding plan.
 */

#include <gtest/gtest.h>

#include "trace/analysis.hh"
#include "trace/recorder.hh"

namespace fusion::trace
{
namespace
{

/** Two functions on two accelerators sharing one buffer. */
Program
makeSharingProgram()
{
    Recorder rec("share");
    FuncId prod = rec.addFunction({"prod", 0, 2, 500});
    FuncId cons = rec.addFunction({"cons", 1, 2, 500});
    rec.beginInvocation(prod);
    for (Addr a = 0; a < 8 * kLineBytes; a += 8) {
        rec.intOps(2);
        rec.store(0x1000 + a, 8);
    }
    rec.end();
    rec.beginInvocation(cons);
    for (Addr a = 0; a < 8 * kLineBytes; a += 8) {
        rec.fpOps(1);
        rec.load(0x1000 + a, 8);
    }
    // Private output of the consumer.
    for (Addr a = 0; a < 4 * kLineBytes; a += 8)
        rec.store(0x8000 + a, 8);
    rec.end();
    return rec.take();
}

TEST(Analysis, ProfileOpMixAndSharing)
{
    Program p = makeSharingProgram();
    auto profs = profileFunctions(p);
    ASSERT_EQ(profs.size(), 2u);
    // prod: 64 stores, 128 int ops -> %ST = 64/192.
    EXPECT_NEAR(profs[0].pctSt, 100.0 * 64 / 192, 0.01);
    EXPECT_NEAR(profs[0].pctInt, 100.0 * 128 / 192, 0.01);
    EXPECT_DOUBLE_EQ(profs[0].pctLd, 0.0);
    // All of prod's lines are read by cons: 100% shared.
    EXPECT_DOUBLE_EQ(profs[0].sharePct, 100.0);
    // cons touches 12 lines, 8 shared.
    EXPECT_NEAR(profs[1].sharePct, 100.0 * 8 / 12, 0.01);
    EXPECT_EQ(profs[1].footprintLines, 12u);
}

TEST(Analysis, FootprintCountsUniqueLines)
{
    Program p = makeSharingProgram();
    EXPECT_EQ(footprintLines(p), 12u);
    EXPECT_EQ(workingSet(p).lines, 12u);
    EXPECT_DOUBLE_EQ(workingSet(p).kilobytes(), 12 * 64 / 1024.0);
}

TEST(Analysis, WindowsRespectScratchpadCapacity)
{
    Program p = makeSharingProgram();
    // prod streams 8 lines; a 2-line scratchpad needs 4 windows.
    auto wins = segmentWindows(p.invocations[0], 2);
    ASSERT_EQ(wins.size(), 4u);
    for (const auto &w : wins) {
        EXPECT_LE(w.readLines.size() + w.dirtyLines.size(), 2u);
        // Write-only stream: nothing to DMA in.
        EXPECT_TRUE(w.readLines.empty());
        EXPECT_EQ(w.dirtyLines.size(), 2u);
    }
    // Windows tile the op stream contiguously.
    EXPECT_EQ(wins.front().beginOp, 0u);
    for (std::size_t i = 1; i < wins.size(); ++i)
        EXPECT_EQ(wins[i].beginOp, wins[i - 1].endOp);
    EXPECT_EQ(wins.back().endOp, p.invocations[0].ops.size());
}

TEST(Analysis, WindowReadSetOnlyHoldsLoadedLines)
{
    Recorder rec("w");
    FuncId f = rec.addFunction({"f", 0, 2, 500});
    rec.beginInvocation(f);
    rec.load(0x0, 8);        // line 0: read
    rec.store(0x40, 8);      // line 1: written only
    rec.load(0x80, 8);       // line 2: read
    rec.store(0x80, 8);      //         ... and written
    rec.end();
    Program p = rec.take();
    auto wins = segmentWindows(p.invocations[0], 64);
    ASSERT_EQ(wins.size(), 1u);
    EXPECT_EQ(wins[0].readLines,
              (std::vector<Addr>{0x0, 0x80}));
    EXPECT_EQ(wins[0].dirtyLines,
              (std::vector<Addr>{0x40, 0x80}));
}

TEST(Analysis, ReusedLineDoesNotSplitWindow)
{
    Recorder rec("w");
    FuncId f = rec.addFunction({"f", 0, 2, 500});
    rec.beginInvocation(f);
    for (int rep = 0; rep < 10; ++rep)
        rec.load(0x0, 8); // one line, many touches
    rec.end();
    Program p = rec.take();
    auto wins = segmentWindows(p.invocations[0], 1);
    EXPECT_EQ(wins.size(), 1u);
}

TEST(Analysis, ForwardPlanFindsProducerConsumerPairs)
{
    Program p = makeSharingProgram();
    ForwardPlan plan = planForwarding(p);
    // Invocation 0 produces all 8 lines for accelerator 1.
    ASSERT_TRUE(plan.count(0));
    EXPECT_EQ(plan.at(0).size(), 8u);
    for (const auto &[line, consumer] : plan.at(0))
        EXPECT_EQ(consumer, 1);
    // The consumer's private stores have no next reader.
    EXPECT_FALSE(plan.count(1));
}

TEST(Analysis, NoForwardWithinOneAccelerator)
{
    Recorder rec("same");
    FuncId a = rec.addFunction({"a", 0, 2, 500});
    FuncId b = rec.addFunction({"b", 0, 2, 500}); // same accel!
    rec.beginInvocation(a);
    rec.store(0x1000, 8);
    rec.end();
    rec.beginInvocation(b);
    rec.load(0x1000, 8);
    rec.end();
    Program p = rec.take();
    EXPECT_TRUE(planForwarding(p).empty());
}

TEST(Analysis, NoForwardWhenConsumerWritesFirst)
{
    Recorder rec("wf");
    FuncId a = rec.addFunction({"a", 0, 2, 500});
    FuncId b = rec.addFunction({"b", 1, 2, 500});
    rec.beginInvocation(a);
    rec.store(0x1000, 8);
    rec.end();
    rec.beginInvocation(b);
    rec.store(0x1000, 8); // overwrites: no use forwarding
    rec.end();
    Program p = rec.take();
    EXPECT_TRUE(planForwarding(p).empty());
}

} // namespace
} // namespace fusion::trace
