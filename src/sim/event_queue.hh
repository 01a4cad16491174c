/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * All timing in the FUSION simulator is driven by one EventQueue.
 * Events scheduled for the same tick fire in (priority, insertion
 * order), which makes every run bit-reproducible regardless of the
 * container behaviour of the host standard library.
 *
 * The queue is a hybrid calendar/bucket queue. Nearly every event in
 * this simulator lands 0–7 ticks in the future (link latencies,
 * bank/SRAM latencies, next-cycle re-pumps), so near-future events
 * go into a power-of-two circular array of per-tick buckets — O(1)
 * scheduling, with a 64-bit occupancy mask giving O(1) next-tick
 * lookup. Within a bucket, events sharing a priority fire in
 * insertion order, which append order already provides — so buckets
 * are plain FIFO vectors, and only a bucket that actually mixes
 * priorities (or receives a late spill migration) pays one
 * sort-on-demand before its first pop. Far-future events (lease
 * expiries, DRAM activates, DMA window turnarounds) spill into a
 * conventional binary heap and migrate into the calendar as the
 * clock approaches them. Events are *moved* in and out of both
 * structures (InlineEvent is move-only) — closures are constructed
 * directly in bucket storage and relocated exactly once on pop, and
 * for the common capture sizes never touch the allocator.
 *
 * Ordering semantics are bit-identical to the classic single-heap
 * implementation: global (when, priority, sequence) order, proven by
 * the randomized property test in tests/test_event_queue.cc.
 */

#ifndef FUSION_SIM_EVENT_QUEUE_HH
#define FUSION_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/inline_event.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace fusion
{

/** Callback type for scheduled events (allocation-free closure). */
using EventFn = InlineEvent;

/**
 * Standard event priorities. Lower values fire first within a tick.
 * The defaults mirror gem5's convention that state-updating
 * "maintenance" events precede new work issued in the same cycle.
 */
enum class EventPriority : int
{
    Maintenance = -10, ///< lease expiry sweeps, unlock processing
    Default = 0,       ///< ordinary component events
    Stats = 10,        ///< end-of-cycle accounting
};

/**
 * The simulation event queue.
 *
 * schedule() enqueues a callback at an absolute tick; run() pops
 * events in order until the queue drains or a stop condition is hit.
 */
class EventQueue
{
  public:
    /** Calendar span in ticks; must be a power of two. Events within
     *  [base, base + kWindow) of the clock are bucketed, later ones
     *  spill to the heap. */
    static constexpr Tick kWindow = 64;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn to run at absolute tick @p when. Templated on
     * the callable so the closure is constructed directly in queue
     * storage (no intermediate InlineEvent move).
     * @pre when >= now()
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn,
             EventPriority pri = EventPriority::Default)
    {
        fusion_assert(when >= _now, "schedule in the past: when=", when,
                      " now=", _now);
        // _base <= _now at every external call and during event
        // execution, so the membership test below keeps all bucketed
        // events inside one window-length range (unique tick per
        // bucket slot).
        if (when - _base < kWindow) {
            auto idx = static_cast<std::size_t>(when & kMask);
            auto &b = _buckets[idx];
            b.v.emplace_back(when, static_cast<int>(pri), _nextSeq++,
                             std::forward<F>(fn));
            b.noteAppend();
            _occupied |= std::uint64_t{1} << idx;
        } else {
            _spill.emplace_back(when, static_cast<int>(pri),
                                _nextSeq++, std::forward<F>(fn));
            std::push_heap(_spill.begin(), _spill.end(), Later{});
        }
        ++_pending;
    }

    /** Schedule @p fn @p delta ticks in the future. */
    template <typename F>
    void
    scheduleIn(Cycles delta, F &&fn,
               EventPriority pri = EventPriority::Default)
    {
        schedule(now() + delta, std::forward<F>(fn), pri);
    }

    /** True when no events are pending. */
    bool empty() const { return _pending == 0; }

    /** Tick of the next pending event (kTickNever when empty). */
    Tick
    headTick() const
    {
        Tick t = nextBucketTick();
        if (!_spill.empty())
            t = std::min(t, _spill.front().when);
        return t;
    }

    /** Number of pending events. */
    std::size_t pending() const { return _pending; }

    /** Total events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Run until the queue drains.
     * @return the tick of the last executed event.
     */
    Tick
    run()
    {
        return runUntil(kTickNever);
    }

    /**
     * Run until the queue drains or the next event is past @p limit.
     * Events *at* @p limit still execute.
     * @return the current tick when stopping.
     */
    Tick
    runUntil(Tick limit)
    {
        while (_pending != 0) {
            Tick t = advanceTo(limit);
            if (t == kTickNever)
                break;
            Entry e = popBucket(t);
            fusion_assert(e.when >= _now,
                          "event queue went backwards");
            _now = e.when;
            ++_executed;
            e.fn();
        }
        return _now;
    }

    /**
     * Execute exactly one event if any is pending.
     * @return true if an event ran.
     */
    bool
    step()
    {
        if (_pending == 0)
            return false;
        Tick t = advanceTo(kTickNever);
        Entry e = popBucket(t);
        fusion_assert(e.when >= _now, "event queue went backwards");
        _now = e.when;
        ++_executed;
        e.fn();
        return true;
    }

    /** Reset time and drop all pending events (for unit tests). */
    void
    reset()
    {
        for (auto &b : _buckets) {
            b.v.clear();
            b.head = 0;
            b.dirty = false;
        }
        _occupied = 0;
        _spill.clear();
        _pending = 0;
        _now = 0;
        _base = 0;
        _nextSeq = 0;
        _executed = 0;
    }

  private:
    static constexpr Tick kMask = kWindow - 1;
    static_assert((kWindow & kMask) == 0,
                  "calendar window must be a power of two");

    struct Entry
    {
        Tick when;
        int pri;
        std::uint64_t seq;
        EventFn fn;
    };

    /** Sort comparator inside one bucket: (pri, seq) order (all
     *  live entries of a bucket share one tick). */
    struct EarlierWithinTick
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.pri != b.pri)
                return a.pri < b.pri;
            return a.seq < b.seq;
        }
    };

    /** Spill-heap comparator: full (when, pri, seq) order. */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.pri != b.pri)
                return a.pri > b.pri;
            return a.seq > b.seq;
        }
    };

    /**
     * One calendar slot. Appends are pops for the common case: fresh
     * schedules carry monotonically increasing sequence numbers, so
     * same-priority events are already in (pri, seq) order and the
     * bucket acts as a plain FIFO ([head, v.end()) is the live
     * range). An append that breaks the order — a lower priority, or
     * a spill migration carrying an old sequence number — marks the
     * bucket dirty and the next pop re-sorts the live range once.
     */
    struct Bucket
    {
        std::vector<Entry> v;
        std::size_t head = 0;
        bool dirty = false;

        /** Update @c dirty after an emplace_back on @c v. */
        void
        noteAppend()
        {
            auto n = v.size();
            if (n - head > 1) {
                const Entry &prev = v[n - 2];
                const Entry &cur = v[n - 1];
                if (cur.pri < prev.pri ||
                    (cur.pri == prev.pri && cur.seq < prev.seq))
                    dirty = true;
            }
        }
    };

    void
    pushBucket(Entry &&e)
    {
        auto idx = static_cast<std::size_t>(e.when & kMask);
        auto &b = _buckets[idx];
        b.v.push_back(std::move(e));
        b.noteAppend();
        _occupied |= std::uint64_t{1} << idx;
    }

    /** Move spill events whose tick entered the calendar window. */
    void
    migrateNear()
    {
        while (!_spill.empty() &&
               _spill.front().when - _base < kWindow) {
            std::pop_heap(_spill.begin(), _spill.end(), Later{});
            Entry e = std::move(_spill.back());
            _spill.pop_back();
            pushBucket(std::move(e));
        }
    }

    /** Smallest bucketed tick, kTickNever when the calendar is
     *  empty. All bucketed ticks lie in [_base, _base + kWindow), so
     *  the first occupied slot at or after _base (cyclically) is the
     *  minimum. */
    Tick
    nextBucketTick() const
    {
        if (_occupied == 0)
            return kTickNever;
        auto base = static_cast<int>(_base & kMask);
        std::uint64_t rot = std::rotr(_occupied, base);
        return _base + static_cast<Tick>(std::countr_zero(rot));
    }

    /**
     * Find the tick of the next event, migrating spill events into
     * the calendar as the window advances. Returns kTickNever when
     * the next event lies past @p limit (the queue is untouched
     * beyond harmless migration in that case).
     * @pre _pending != 0
     */
    Tick
    advanceTo(Tick limit)
    {
        // Snap the window base to the clock: every bucketed event is
        // >= _now, so this only widens the usable window.
        _base = _now;
        migrateNear();
        Tick t = nextBucketTick();
        if (t == kTickNever) {
            // Everything pending is far-future: jump the window.
            Tick t0 = _spill.front().when;
            if (t0 > limit)
                return kTickNever;
            _base = t0;
            migrateNear();
            return t0;
        }
        return t <= limit ? t : kTickNever;
    }

    /** Pop the (priority, seq)-least event of bucketed tick @p t. */
    Entry
    popBucket(Tick t)
    {
        auto idx = static_cast<std::size_t>(t & kMask);
        auto &b = _buckets[idx];
        if (b.dirty) {
            std::sort(b.v.begin() + static_cast<std::ptrdiff_t>(b.head),
                      b.v.end(), EarlierWithinTick{});
            b.dirty = false;
        }
        Entry e = std::move(b.v[b.head]);
        if (++b.head == b.v.size()) {
            b.v.clear(); // keeps capacity; steady state stays alloc-free
            b.head = 0;
            _occupied &= ~(std::uint64_t{1} << idx);
        }
        --_pending;
        return e;
    }

    std::array<Bucket, kWindow> _buckets;
    std::uint64_t _occupied = 0; ///< bit i: bucket i non-empty
    std::vector<Entry> _spill;   ///< far-future min-heap
    std::size_t _pending = 0;
    Tick _now = 0;
    Tick _base = 0; ///< calendar window base (<= _now at rest)
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
};

} // namespace fusion

#endif // FUSION_SIM_EVENT_QUEUE_HH
