/**
 * @file
 * sim::Completion, the 24-byte value a memory operation's completion
 * travels as (DESIGN.md section 8): what it may hold, and that the
 * hit paths that carry it take no block from SmallFn's slab.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>

#include "accel/tile.hh"
#include "sim/completion.hh"
#include "sim/small_fn.hh"
#include "test_util.hh"

namespace fusion
{
namespace
{

using sim::Completion;

/** An L0X with a long lease and a host L1 on one LLC. */
struct HitRig : test::L1Rig
{
    static constexpr Addr kAccelBase = 0x10000000;
    static constexpr Addr kHostBase = 0x20000000;
    static constexpr int kLines = 4;

    vm::PageTable pt;
    std::unique_ptr<accel::FusionTile> tile;

    HitRig()
    {
        accel::TileParams p;
        p.numAccels = 1;
        tile = std::make_unique<accel::FusionTile>(ctx, p, llc, pt);
        pt.ensureMappedRange(1, kAccelBase, 1 << 16);
        pt.ensureMappedRange(1, kHostBase, 1 << 16);
        tile->l0x(0).setFunction(1'000'000, 1);
    }

    Addr accelLine(int i) const { return kAccelBase + i * kLineBytes; }

    Addr
    hostLine(int i) const
    {
        return pt.translate(1, kHostBase + i * kLineBytes);
    }
};

TEST(Completion, HitPathsTakeNoSlabBlock)
{
    // The completion is a small value that can own nothing, so a
    // closure carrying it stays trivially copyable and inline.
    static_assert(std::is_trivially_copyable_v<Completion>);
    static_assert(sizeof(Completion) <= 24);
    static_assert(std::is_same_v<accel::PortDone, Completion>);
    static_assert(std::is_same_v<host::HostL1::AccessDone, Completion>);
    std::uint64_t a = 1, b = 2, c = 3;
    auto wide = [a, b, c] { (void)(a + b + c); };
    static_assert(sizeof(wide) == 24);
    static_assert(!std::is_constructible_v<Completion, decltype(wide)>);
    auto owner = [p = std::make_shared<int>(1)] { (void)*p; };
    static_assert(sizeof(owner) <= Completion::kCaptureBytes);
    static_assert(!std::is_constructible_v<Completion, decltype(owner)>);
    static_assert(
        !std::is_constructible_v<Completion, sim::SmallFn<void()>>);
    Completion bump = [&a] { ++a; };
    Addr vline = 0x1000;
    Tick start = 7;
    sim::SmallFn<void()> lookup = [&b, vline, start, bump] {
        b = vline + start;
        bump();
    };
    EXPECT_TRUE(lookup.isInline());
    lookup();
    EXPECT_EQ(a, 2u);
    EXPECT_EQ(b, 0x1007u);

    HitRig r;
    // Warm: host L1 misses, then L0X load misses, stepped so no lease
    // runs out.
    for (int i = 0; i < HitRig::kLines; ++i)
        r.accessSync(r.hostLine(i), false);
    for (int i = 0; i < HitRig::kLines; ++i) {
        bool done = false;
        r.tile->l0x(0).access(r.accelLine(i), 8, false,
                              [&done] { done = true; });
        while (!done && r.ctx.eq.step()) {
        }
        ASSERT_TRUE(done);
    }
    // Leases still run for about a million cycles; nothing else is
    // due soon, so the thread below runs only its own events.
    ASSERT_GT(r.ctx.eq.headTick(), r.ctx.now() + 10'000);
    const std::uint64_t l0x_hits = r.tile->l0x(0).hits();
    const std::uint64_t l1_hits = r.l1.hits();

    // A fresh thread's slab freelist is empty, and stays empty unless
    // a closure spills to the slab and is released. Each path runs
    // its hits on its own fresh thread.
    auto slabUntouchedAfter = [&r](auto issue) {
        bool untouched = false;
        std::thread t([&] {
            int completed = 0;
            for (int i = 0; i < HitRig::kLines; ++i)
                issue(i, Completion([&completed] { ++completed; }));
            while (completed < HitRig::kLines && r.ctx.eq.step()) {
            }
            EXPECT_EQ(completed, HitRig::kLines);
            untouched = detail::eventSlabFree == nullptr;
        });
        t.join();
        return untouched;
    };
    EXPECT_TRUE(slabUntouchedAfter([&r](int i, Completion done) {
        r.tile->l0x(0).access(r.accelLine(i), 8, false, done);
    }));
    EXPECT_TRUE(slabUntouchedAfter([&r](int i, Completion done) {
        r.l1.access(r.hostLine(i), false, done);
    }));
    EXPECT_EQ(r.tile->l0x(0).hits() - l0x_hits, 4u);
    EXPECT_EQ(r.l1.hits() - l1_hits, 4u);
}

} // namespace
} // namespace fusion
