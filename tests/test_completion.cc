/**
 * @file
 * sim::Completion, the 24-byte value a memory operation's completion
 * travels as (DESIGN.md section 8): what it may hold, that the hit
 * paths that carry it take no block from SmallFn's slab, and that the
 * steady-state transaction paths make no heap allocation at all.
 *
 * Built as its own binary (fusion_test_alloc), because it replaces
 * the global operator new with a counter.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <type_traits>

#include "accel/replay_core.hh"
#include "accel/tile.hh"
#include "sim/completion.hh"
#include "sim/small_fn.hh"
#include "test_util.hh"

namespace
{

// Heap allocations, counted while gCounting is set. Relaxed atomics:
// HitPathsTakeNoSlabBlock allocates on a second thread.
std::atomic<std::uint64_t> gAllocs{0};
std::atomic<bool> gCounting{false};

void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    void *p = align ? std::aligned_alloc(align,
                                         (n + align - 1) / align * align)
                    : std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

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
        pt.ensureMappedRange(1, kAccelBase, 1 << 17);
        pt.ensureMappedRange(1, kHostBase, 1 << 17);
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
    // its hits on its own fresh thread: @p issue(done) starts them,
    // and they call done @p n times in all.
    auto slabUntouchedAfter = [&r](int n, auto issue) {
        bool untouched = false;
        std::thread t([&] {
            int completed = 0;
            issue(Completion([&completed] { ++completed; }));
            while (completed < n && r.ctx.eq.step()) {
            }
            EXPECT_EQ(completed, n);
            untouched = detail::eventSlabFree == nullptr;
        });
        t.join();
        return untouched;
    };
    EXPECT_TRUE(slabUntouchedAfter(HitRig::kLines, [&r](Completion done) {
        for (int i = 0; i < HitRig::kLines; ++i)
            r.tile->l0x(0).access(r.accelLine(i), 8, false, done);
    }));
    EXPECT_TRUE(slabUntouchedAfter(HitRig::kLines, [&r](Completion done) {
        for (int i = 0; i < HitRig::kLines; ++i)
            r.l1.access(r.hostLine(i), false, done);
    }));
    // A replay core over the same L0X hits: the 1-cycle L0X splits,
    // so each load but the last runs its lookup in one event with
    // the next issue, and that closure must stay inline too.
    accel::ReplayCoreParams cp;
    cp.name = "axc0.core";
    accel::ReplayCore core(r.ctx, cp);
    std::vector<trace::TraceOp> ops;
    for (int pass = 0; pass < 2; ++pass)
        for (int i = 0; i < HitRig::kLines; ++i)
            ops.push_back(trace::TraceOp::load(r.accelLine(i), 8));
    ASSERT_EQ(r.tile->l0x(0).latency(), 1u);
    EXPECT_TRUE(slabUntouchedAfter(1, [&](Completion done) {
        core.run(ops, 0, ops.size(), 2, r.tile->l0x(0), done);
    }));
    EXPECT_EQ(r.tile->l0x(0).hits() - l0x_hits, 4u + ops.size());
    EXPECT_EQ(r.l1.hits() - l1_hits, 4u);
}

/**
 * Heap allocations made by a serial chain of 4,000 accesses over
 * @p lines cyclic lines, each issued by the previous one's
 * completion. Four warm-up passes run first, so the lines are filled
 * and every pool and container has reached its steady-state size
 * (after two, the host-L1 row still makes ten one-time allocations).
 * @p issue(i, done) starts the access to line i.
 */
template <typename Issue>
std::uint64_t
steadyStateAllocs(HitRig &r, int lines, Issue issue)
{
    struct Chain
    {
        HitRig &r;
        Issue &issue;
        int lines;
        int line = 0;
        int left = 0;

        void
        next()
        {
            int i = line;
            line = (line + 1) % lines;
            issue(i, Completion([this] {
                if (--left > 0)
                    next();
            }));
        }

        void
        run(int ops)
        {
            left = ops;
            next();
            while (left > 0 && r.ctx.eq.step()) {
            }
            EXPECT_EQ(left, 0);
        }
    } chain{r, issue, lines};
    chain.run(4 * lines);
    gAllocs.store(0, std::memory_order_relaxed);
    gCounting.store(true, std::memory_order_relaxed);
    chain.run(4'000);
    gCounting.store(false, std::memory_order_relaxed);
    return gAllocs.load(std::memory_order_relaxed);
}

TEST(Completion, TransactionPathsMakeNoHeapAllocation)
{
    auto l0xAccess = [](HitRig &r, bool is_write) {
        return [&r, is_write](int i, Completion done) {
            r.tile->l0x(0).access(r.accelLine(i), 4, is_write, done);
        };
    };

    // L0X load hits under HitRig's long lease.
    HitRig hit;
    EXPECT_EQ(steadyStateAllocs(hit, 16, l0xAccess(hit, false)), 0u);
    EXPECT_EQ(hit.tile->l0x(0).misses(), 16u);

    // 4x the 4 KB L0X: every load misses the L0X and hits the 64 KB
    // L1X, through the MSHR and the lease grant.
    HitRig lease;
    EXPECT_EQ(steadyStateAllocs(lease, 256, l0xAccess(lease, false)),
              0u);
    EXPECT_EQ(lease.tile->l0x(0).hits(), 0u);
    EXPECT_EQ(lease.tile->l1x().misses(), 256u);

    // Stores under a 64-cycle lease: write epochs keep expiring, so a
    // self-downgrade sweep (writeback plus a fresh write lease) runs
    // about once per store.
    HitRig store;
    store.tile->l0x(0).setFunction(64, 1);
    EXPECT_EQ(steadyStateAllocs(store, 16, l0xAccess(store, true)), 0u);
    EXPECT_GT(store.tile->l0x(0).writebacksSent(), 4'000u);

    // SHARED's host L1 hit path.
    HitRig host;
    EXPECT_EQ(steadyStateAllocs(host, 16,
                                [&host](int i, Completion done) {
                                    host.l1.access(host.hostLine(i),
                                                   false, done);
                                }),
              0u);
    EXPECT_EQ(host.l1.misses(), 16u);

    // Host-L1 loads over 2,048 lines, twice the 64 KB L1: every load
    // misses and hits in the LLC, through its directory.
    HitRig hostMiss;
    EXPECT_EQ(steadyStateAllocs(hostMiss, 2048,
                                [&hostMiss](int i, Completion done) {
                                    hostMiss.l1.access(
                                        hostMiss.hostLine(i), false,
                                        done);
                                }),
              0u);
    EXPECT_EQ(hostMiss.l1.hits(), 0u);

    // L0X loads over the same span under a 64-cycle lease: every
    // load also misses the 64 KB L1X, through the AX-TLB, the
    // AX-RMAP and the LLC.
    HitRig l1xMiss;
    l1xMiss.tile->l0x(0).setFunction(64, 1);
    EXPECT_EQ(steadyStateAllocs(l1xMiss, 2048, l0xAccess(l1xMiss, false)),
              0u);
    EXPECT_EQ(l1xMiss.tile->l1x().hits(), 0u);

    // DRAM reads straight from the rig's DRAM: each channel's command
    // FIFO, a ring, reached its size in the warm-up.
    HitRig dram;
    EXPECT_EQ(steadyStateAllocs(dram, 16,
                                [&dram](int i, Completion done) {
                                    dram.dram.access(i * kLineBytes,
                                                     false, done);
                                }),
              0u);
    EXPECT_EQ(dram.dram.accesses(), 4u * 16 + 4'000);
}

} // namespace
} // namespace fusion
