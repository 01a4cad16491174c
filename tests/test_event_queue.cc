/**
 * @file
 * Unit tests for the deterministic event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <random>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/guard/sim_error.hh"
#include "sim/small_fn.hh"

namespace fusion
{
namespace
{

/** Counts live copies: a leak leaves the count above zero, a double
 *  destruction drives it below. */
struct Probe
{
    int *count;
    explicit Probe(int *c) : count(c) { ++*count; }
    Probe(const Probe &o) : count(o.count) { ++*count; }
    Probe(Probe &&o) noexcept : count(o.count) { o.count = nullptr; }
    ~Probe()
    {
        if (count)
            --*count;
    }
    void operator()() const {}
};

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoWithinPriority)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, MaintenancePriorityRunsFirstWithinTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); },
                EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(0); },
                EventPriority::Maintenance);
    eq.schedule(5, [&] { order.push_back(2); },
                EventPriority::Stats);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(5, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            eq.scheduleIn(1, chain);
    };
    eq.scheduleIn(1, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilStopsAtLimitInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(21, [&] { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutedCounterCounts)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.runUntil(0);
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "schedule in the past");
}

TEST(EventQueue, ResetAfterRunIsFullyReusable)
{
    EventQueue eq;
    int fired = 0;
    // Mix near (bucketed) and far (spilled) events, run past both,
    // then reset and verify the queue behaves like a fresh one.
    eq.schedule(3, [&] { ++fired; });
    eq.schedule(500, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 500u);

    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_EQ(eq.headTick(), kTickNever);

    // Ticks earlier than the pre-reset clock must be schedulable
    // again, and ordering must be intact.
    std::vector<int> order;
    eq.schedule(2, [&] { order.push_back(2); });
    eq.schedule(1, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueue, FarFutureEventsSpillAndReturn)
{
    EventQueue eq;
    std::vector<Tick> seen;
    // Lease-expiry-like deltas far beyond the calendar window,
    // interleaved with near events, including two spilled events
    // landing on ticks that alias the same bucket slot.
    for (Tick t : {5000u, 3u, 70u, 5064u, 200u, 4999u})
        eq.schedule(t, [&, t] { seen.push_back(t); });
    eq.run();
    EXPECT_EQ(seen,
              (std::vector<Tick>{3, 70, 200, 4999, 5000, 5064}));
    EXPECT_EQ(eq.now(), 5064u);
}

TEST(EventQueue, HeadTickSeesBucketedAndSpilledEvents)
{
    EventQueue eq;
    EXPECT_EQ(eq.headTick(), kTickNever);
    eq.schedule(900, [] {}); // spill
    EXPECT_EQ(eq.headTick(), 900u);
    eq.schedule(7, [] {}); // bucket
    EXPECT_EQ(eq.headTick(), 7u);
    eq.step();
    EXPECT_EQ(eq.headTick(), 900u);
}

TEST(EventQueue, RunUntilParksBeforeFarFutureWork)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10'000, [&] { ++fired; });
    // The stop limit is far below the only pending event: the clock
    // must not jump past the limit chasing it.
    eq.runUntil(100);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_LE(eq.now(), 100u);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 10'000u);
}

TEST(EventQueue, SameTickBurstGrowsStorageUnderRunningEvent)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<Tick> ticks;
    std::array<std::uint64_t, 4> seen{};
    eq.schedule(7, [&, payload = std::array<std::uint64_t, 4>{
                           1, 2, 3, 4}]() mutable {
        for (int i = 0; i < 4096; ++i) {
            eq.scheduleIn(0, [&order, &ticks, &eq, i] {
                order.push_back(i);
                ticks.push_back(eq.now());
            });
        }
        // Its own tick's storage grew many times under it; the
        // closure's captures must still be its own.
        for (auto &v : payload)
            v *= 10;
        seen = payload;
    });
    // The first batch stops at the cap inside tick 7; the rest of the
    // burst follows in later batches of the same tick.
    EXPECT_EQ(eq.runBatch(), EventQueue::kBatchCap);
    std::size_t total = EventQueue::kBatchCap;
    while (std::size_t n = eq.runBatch())
        total += n;
    EXPECT_EQ(total, 4097u);
    EXPECT_EQ(seen, (std::array<std::uint64_t, 4>{10, 20, 30, 40}));
    ASSERT_EQ(order.size(), 4096u);
    for (int i = 0; i < 4096; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_TRUE(std::all_of(ticks.begin(), ticks.end(),
                            [](Tick t) { return t == 7; }));
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, EveryClosureDestroyedExactlyOnce)
{
    int live = 0;
    int ran = 0;
    // 10,000 pending events spread over bucketed and spilled ticks,
    // half inline with a non-trivial destructor, half too large for
    // the inline buffer (slab-stored).
    auto fill = [&](EventQueue &eq) {
        for (int i = 0; i < 10'000; ++i) {
            Tick when = eq.now() + static_cast<Tick>(i * 7 % 5000);
            if (i % 2) {
                eq.schedule(when, [&ran, p = Probe(&live)] { ++ran; });
            } else {
                eq.schedule(when, [&ran, p = Probe(&live),
                                   pad = std::array<char, 100>{}] {
                    ran += 1 + pad[0];
                });
            }
        }
    };

    {
        EventQueue eq;
        fill(eq);
        EXPECT_EQ(live, 10'000);
        eq.reset();
        EXPECT_EQ(live, 0);
        EXPECT_TRUE(eq.empty());

        fill(eq);
        eq.run();
        EXPECT_EQ(ran, 10'000);
        EXPECT_EQ(live, 0);

        // A throwing event (a panic under TickScope) loses its
        // closure; everything else stays queued and runs later.
        eq.schedule(eq.now(), [p = Probe(&live)] {
            fusion_panic("event failed");
        });
        fill(eq);
        {
            guard::TickScope scope(eq);
            EXPECT_THROW(eq.run(), guard::SimErrorException);
        }
        EXPECT_EQ(live, 10'000);
        EXPECT_EQ(eq.pending(), 10'000u);
        eq.run();
        EXPECT_EQ(ran, 20'000);
        EXPECT_EQ(live, 0);

        fill(eq);
        EXPECT_EQ(live, 10'000);
    } // destroyed with 10,000 events pending
    EXPECT_EQ(live, 0);
}

/**
 * Property test: random schedules (including same-tick bursts and
 * events scheduling events) must execute in exactly the order of a
 * reference stable sort by (when, priority, insertion seq).
 */
TEST(EventQueue, RandomizedOrderMatchesReferenceStableSort)
{
    std::mt19937 rng(0xf051u);
    std::uniform_int_distribution<int> pri_pick(0, 2);
    constexpr std::array<EventPriority, 3> kPris{
        EventPriority::Maintenance, EventPriority::Default,
        EventPriority::Stats};

    for (int round = 0; round < 20; ++round) {
        // Ref entry: (when, pri, insertion seq) — seq assigned in
        // schedule order, including runtime-scheduled events.
        struct Ref
        {
            Tick when;
            int pri;
            std::uint64_t seq;
        };
        std::vector<Ref> ref;
        std::vector<std::uint64_t> executed;
        std::vector<Tick> executedAt;
        EventQueue eq;
        std::uint64_t next_seq = 0;

        // Random spawns use deltas from 1. Delta-0 spawns (ReplayCore's
        // one-cycle re-pump pattern) take the spawner's priority or a
        // later one: a same-tick spawn at a *lower* priority than the
        // executing event would run after it (the tick is already
        // past that priority band), which a plain sort of
        // (when, pri, seq) cannot express.
        std::uniform_int_distribution<Tick> delta_pick(
            1, round % 2 ? 90 : 9000); // near-heavy and far-heavy
        std::function<void()> schedule_random;
        std::function<void(Tick, int)> schedule_at = [&](Tick when,
                                                         int pi) {
            EventPriority pri = kPris[static_cast<std::size_t>(pi)];
            std::uint64_t seq = next_seq++;
            ref.push_back(Ref{when, static_cast<int>(pri), seq});
            bool spawn = (seq % 5) == 0; // events schedule events
            bool repump = (seq % 7) == 3;
            eq.schedule(
                when,
                [&, seq, spawn, repump, pi] {
                    executed.push_back(seq);
                    executedAt.push_back(eq.now());
                    if (next_seq >= 600)
                        return;
                    if (spawn)
                        schedule_random();
                    if (repump) {
                        std::uniform_int_distribution<int> later(pi, 2);
                        schedule_at(eq.now(), later(rng));
                    }
                },
                pri);
        };
        schedule_random = [&] {
            Tick when = eq.now() + delta_pick(rng);
            schedule_at(when, pri_pick(rng));
        };
        // 400 seeds over a small tick range: same-tick bursts are
        // guaranteed by pigeonhole; runtime spawns extend the tail.
        for (int i = 0; i < 400; ++i)
            schedule_random();
        if (round % 4 == 0) {
            // The watchdog's drain: every batch stays inside one
            // tick and under the cap.
            while (true) {
                std::size_t from = executed.size();
                std::size_t n = eq.runBatch();
                if (n == 0)
                    break;
                ASSERT_LE(n, EventQueue::kBatchCap);
                for (std::size_t i = from; i < executedAt.size(); ++i)
                    ASSERT_EQ(executedAt[i], eq.now());
            }
        } else {
            eq.run();
        }

        ASSERT_EQ(executed.size(), ref.size());
        std::stable_sort(ref.begin(), ref.end(),
                         [](const Ref &a, const Ref &b) {
                             return std::tie(a.when, a.pri, a.seq) <
                                    std::tie(b.when, b.pri, b.seq);
                         });
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(executed[i], ref[i].seq)
                << "round " << round << " position " << i;
    }
}

// The queue's closure type (EventFn, sim::SmallFn<void()>) at event
// payload sizes; SmallFn.MoveTransfersClosure covers its moves.
TEST(InlineEvent, SmallCallablesAreStoredInline)
{
    std::array<std::uint64_t, 4> payload{1, 2, 3, 4}; // 32 bytes
    int hits = 0;
    sim::SmallFn<void()> ev([&hits, payload] { hits += payload[3]; });
    EXPECT_TRUE(static_cast<bool>(ev));
    EXPECT_TRUE(ev.isInline());
    ev();
    EXPECT_EQ(hits, 4);
}

TEST(InlineEvent, OversizedCallablesFallBackToHeap)
{
    std::array<std::uint64_t, 16> payload{}; // 128 bytes > inline
    payload[15] = 9;
    int hits = 0;
    sim::SmallFn<void()> ev([&hits, payload] {
        hits += static_cast<int>(payload[15]);
    });
    EXPECT_FALSE(ev.isInline());
    ev();
    EXPECT_EQ(hits, 9);
}

TEST(InlineEvent, DestructorRunsForBothStorageKinds)
{
    int live = 0;
    {
        sim::SmallFn<void()> small{Probe(&live)};
        std::array<char, 100> pad{};
        sim::SmallFn<void()> big{[p = Probe(&live), pad] { (void)pad; }};
        EXPECT_TRUE(small.isInline());
        EXPECT_FALSE(big.isInline());
        EXPECT_EQ(live, 2);
    }
    EXPECT_EQ(live, 0);
}

} // namespace
} // namespace fusion
