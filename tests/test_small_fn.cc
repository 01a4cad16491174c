/**
 * @file
 * Unit tests for sim::SmallFn, the allocation-free move-only closure
 * used on every transaction path (DESIGN.md section 8).
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>

#include "sim/small_fn.hh"

namespace fusion::sim
{
namespace
{

TEST(SmallFn, EmptyByDefault)
{
    SmallFn<void()> f;
    EXPECT_FALSE(f);
}

TEST(SmallFn, SmallCaptureIsInline)
{
    int hits = 0;
    SmallFn<void()> f = [&hits] { ++hits; };
    ASSERT_TRUE(f);
    EXPECT_TRUE(f.isInline());
    f();
    f();
    EXPECT_EQ(hits, 2);
}

TEST(SmallFn, ForwardsArgumentsAndReturn)
{
    SmallFn<int(int, int)> add = [](int a, int b) { return a + b; };
    EXPECT_EQ(add(2, 3), 5);
    int base = 10;
    SmallFn<int(int)> offset = [base](int x) { return base + x; };
    EXPECT_EQ(offset(7), 17);
}

TEST(SmallFn, MoveTransfersClosure)
{
    int hits = 0;
    SmallFn<void()> a = [&hits] { ++hits; };
    SmallFn<void()> b = std::move(a);
    EXPECT_FALSE(a); // NOLINT: moved-from must read empty
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(hits, 1);

    SmallFn<void()> c;
    c = std::move(b);
    EXPECT_FALSE(b); // NOLINT
    c();
    EXPECT_EQ(hits, 2);
}

TEST(SmallFn, HoldsMoveOnlyCapture)
{
    auto p = std::make_unique<int>(42);
    SmallFn<int()> f = [p = std::move(p)] { return *p; };
    EXPECT_EQ(f(), 42);
    SmallFn<int()> g = std::move(f);
    EXPECT_EQ(g(), 42);
}

TEST(SmallFn, OversizedCaptureGoesToSlab)
{
    std::array<std::uint64_t, 32> big{}; // 256 B > kInlineBytes
    big[0] = 7;
    big[31] = 9;
    SmallFn<std::uint64_t()> f = [big] { return big[0] + big[31]; };
    ASSERT_TRUE(f);
    EXPECT_FALSE(f.isInline());
    EXPECT_EQ(f(), 16u);
    // Heap-path moves hand over the block pointer.
    SmallFn<std::uint64_t()> g = std::move(f);
    EXPECT_FALSE(f); // NOLINT
    EXPECT_EQ(g(), 16u);
}

TEST(SmallFn, ResetDestroysCapture)
{
    auto alive = std::make_shared<int>(1);
    std::weak_ptr<int> watch = alive;
    SmallFn<void()> f = [keep = std::move(alive)] { (void)keep; };
    EXPECT_FALSE(watch.expired());
    f.reset();
    EXPECT_TRUE(watch.expired());
    EXPECT_FALSE(f);
}

TEST(SmallFn, DestructorReleasesOversizedCapture)
{
    auto alive = std::make_shared<int>(1);
    std::weak_ptr<int> watch = alive;
    {
        std::array<std::uint64_t, 32> pad{};
        SmallFn<void()> f = [keep = std::move(alive), pad] {
            (void)keep;
            (void)pad;
        };
        EXPECT_FALSE(f.isInline());
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(SmallFn, ChainedContinuationRunsViaSlab)
{
    // The miss-path shape (lease grants, LLC responses): a closure
    // that carries a moved-in downstream continuation. A whole
    // SmallFn is wider than the inline buffer, so the chain takes
    // the slab path — the point of the freelist is that this still
    // costs no heap allocation in steady state (asserted on a real
    // tile by Completion.TransactionPathsMakeNoHeapAllocation).
    int order = 0;
    SmallFn<void()> inner = [&order] { order = order * 10 + 2; };
    SmallFn<void()> outer = [&order,
                             inner = std::move(inner)]() mutable {
        order = order * 10 + 1;
        inner();
    };
    EXPECT_FALSE(outer.isInline());
    SmallFn<void()> moved = std::move(outer);
    EXPECT_FALSE(outer); // NOLINT
    moved();
    EXPECT_EQ(order, 12);
}

} // namespace
} // namespace fusion::sim
