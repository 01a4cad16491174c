/**
 * @file
 * Trace recorder + Traced<> instrumentation tests.
 */

#include <gtest/gtest.h>

#include <limits>

#include "trace/recorder.hh"

namespace fusion::trace
{
namespace
{

TEST(VaAllocator, PageAlignedBump)
{
    VaAllocator va(0x10000000);
    Addr a = va.allocate(100);
    Addr b = va.allocate(5000);
    Addr c = va.allocate(1);
    EXPECT_EQ(a, 0x10000000u);
    EXPECT_EQ(b, 0x10001000u); // 100 rounds to one page
    EXPECT_EQ(c, 0x10003000u); // 5000 rounds to two pages
}

TEST(Recorder, PhasesRouteOpsToTheRightStreams)
{
    Recorder rec("t");
    FuncId f = rec.addFunction({"f", 0, 2, 500});
    rec.beginHostInit();
    rec.store(0x100, 64);
    rec.end();
    rec.beginInvocation(f);
    rec.load(0x200, 4);
    rec.end();
    rec.beginHostFinal();
    rec.load(0x100, 64);
    rec.end();

    Program p = rec.take();
    ASSERT_EQ(p.hostInit.size(), 1u);
    EXPECT_EQ(p.hostInit[0].kind, OpKind::Store);
    ASSERT_EQ(p.invocations.size(), 1u);
    ASSERT_EQ(p.invocations[0].ops.size(), 1u);
    EXPECT_EQ(p.invocations[0].ops[0].addr, 0x200u);
    ASSERT_EQ(p.hostFinal.size(), 1u);
}

TEST(Recorder, ComputeOpsCoalesceUntilNextMemOp)
{
    Recorder rec("t");
    FuncId f = rec.addFunction({"f", 0, 2, 500});
    rec.beginInvocation(f);
    rec.intOps(3);
    rec.fpOps(2);
    rec.intOps(5);
    rec.load(0x100, 4);
    rec.intOps(1);
    rec.end(); // flushes the trailing burst

    Program p = rec.take();
    const auto &ops = p.invocations[0].ops;
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].kind, OpKind::Compute);
    EXPECT_EQ(ops[0].intOps(), 8u);
    EXPECT_EQ(ops[0].fpOps(), 2u);
    EXPECT_EQ(ops[1].kind, OpKind::Load);
    EXPECT_EQ(ops[2].kind, OpKind::Compute);
    EXPECT_EQ(ops[2].intOps(), 1u);
}

TEST(Recorder, ComputeCountsPastUint32MaxSplitTheOp)
{
    Recorder rec("t");
    FuncId f = rec.addFunction({"f", 0, 2, 500});
    rec.beginInvocation(f);
    rec.intOps(std::numeric_limits<std::uint32_t>::max());
    rec.intOps(2);
    rec.load(0x100, 4);
    rec.end();

    Program p = rec.take();
    std::uint64_t int_ops = 0;
    for (const TraceOp &op : p.invocations[0].ops)
        int_ops += op.intOps();
    EXPECT_EQ(int_ops, (std::uint64_t{1} << 32) + 1);
}

TEST(Recorder, MemoryOpsReportNoComputeCounts)
{
    constexpr std::uint32_t kMax =
        std::numeric_limits<std::uint32_t>::max();
    // Addresses whose halves would read as counts if the accessors
    // ignored the kind.
    for (const TraceOp &op : {TraceOp::load(~Addr{0} << 6, kMax),
                              TraceOp::store(Addr{3} << 32 | 0x40, 4)}) {
        EXPECT_EQ(op.intOps(), 0u);
        EXPECT_EQ(op.fpOps(), 0u);
    }
}

TEST(Recorder, MultipleInvocationsKeepProgramOrder)
{
    Recorder rec("t");
    FuncId f0 = rec.addFunction({"f0", 0, 2, 500});
    FuncId f1 = rec.addFunction({"f1", 1, 2, 500});
    for (FuncId f : {f0, f1, f0}) {
        rec.beginInvocation(f);
        rec.load(0x100, 4);
        rec.end();
    }
    Program p = rec.take();
    ASSERT_EQ(p.invocations.size(), 3u);
    EXPECT_EQ(p.invocations[0].func, f0);
    EXPECT_EQ(p.invocations[1].func, f1);
    EXPECT_EQ(p.invocations[2].func, f0);
    EXPECT_EQ(p.accelCount(), 2u);
}

TEST(Traced, ReadsAndWritesAreRecordedWithAddresses)
{
    Recorder rec("t");
    VaAllocator va;
    FuncId f = rec.addFunction({"f", 0, 2, 500});
    Traced<int> arr(rec, va, 16);
    rec.beginInvocation(f);
    arr[3] = 42;
    int v = arr[3];
    rec.end();
    EXPECT_EQ(v, 42);
    Program p = rec.take();
    const auto &ops = p.invocations[0].ops;
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].kind, OpKind::Store);
    EXPECT_EQ(ops[0].addr, arr.baseVa() + 3 * sizeof(int));
    EXPECT_EQ(ops[0].size, sizeof(int));
    EXPECT_EQ(ops[1].kind, OpKind::Load);
}

TEST(Traced, CompoundAssignRecordsLoadAndStore)
{
    Recorder rec("t");
    VaAllocator va;
    FuncId f = rec.addFunction({"f", 0, 2, 500});
    Traced<int> arr(rec, va, 4);
    arr.poke(0, 10);
    rec.beginInvocation(f);
    arr[0] += 5;
    rec.end();
    EXPECT_EQ(arr.peek(0), 15);
    Program p = rec.take();
    ASSERT_EQ(p.invocations[0].ops.size(), 2u);
    EXPECT_EQ(p.invocations[0].ops[0].kind, OpKind::Load);
    EXPECT_EQ(p.invocations[0].ops[1].kind, OpKind::Store);
}

TEST(Traced, PeekPokeAreUntraced)
{
    Recorder rec("t");
    VaAllocator va;
    FuncId f = rec.addFunction({"f", 0, 2, 500});
    Traced<float> arr(rec, va, 8);
    rec.beginInvocation(f);
    arr.poke(1, 2.5f);
    EXPECT_FLOAT_EQ(arr.peek(1), 2.5f);
    rec.end();
    Program p = rec.take();
    EXPECT_TRUE(p.invocations[0].ops.empty());
}

TEST(Traced, HostTouchArrayCoversEveryLine)
{
    Recorder rec("t");
    VaAllocator va;
    Traced<int> arr(rec, va, 64); // 256 bytes = 4 lines
    rec.beginHostInit();
    hostTouchArray(rec, arr, true);
    rec.end();
    Program p = rec.take();
    EXPECT_EQ(p.hostInit.size(), 4u);
    for (const auto &op : p.hostInit)
        EXPECT_EQ(op.kind, OpKind::Store);
}

TEST(TracedDeathTest, OutOfBoundsPanics)
{
    Recorder rec("t");
    VaAllocator va;
    FuncId f = rec.addFunction({"f", 0, 2, 500});
    Traced<int> arr(rec, va, 4);
    rec.beginInvocation(f);
    EXPECT_DEATH(arr.read(4), "OOB");
}

TEST(RecorderDeathTest, OpsOutsidePhasesPanic)
{
    Recorder rec("t");
    EXPECT_DEATH(rec.load(0x100, 4), "outside any phase");
}

TEST(RecorderDeathTest, NestedPhasesPanic)
{
    Recorder rec("t");
    rec.beginHostInit();
    EXPECT_DEATH(rec.beginHostFinal(), "not idle");
}

} // namespace
} // namespace fusion::trace
