/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * All timing in the FUSION simulator is driven by one EventQueue.
 * Events scheduled for the same tick fire in (priority, insertion
 * order), which makes every run bit-reproducible regardless of the
 * container behaviour of the host standard library.
 *
 * Each closure is constructed once, in a node taken from the queue's
 * pooled freelist; it runs in that node and is destroyed there. A
 * node never moves while its event is queued or running, so a running
 * closure may schedule freely, even into its own tick. The ordering
 * structures hold only 16-byte {key, node} slots, where the key packs
 * (priority, insertion seq) into one word.
 *
 * The ordering is a hybrid calendar/bucket queue. Nearly every event
 * in this simulator lands 0–7 ticks in the future (link latencies,
 * bank/SRAM latencies, next-cycle re-pumps), so near-future events go
 * into a power-of-two circular array of per-tick buckets — O(1)
 * scheduling, with a 64-bit occupancy mask giving O(1) next-tick
 * lookup. Within a bucket, events sharing a priority fire in
 * insertion order, which append order already provides — so buckets
 * are plain FIFO slot vectors, and only a bucket that actually mixes
 * priorities pays one sort-on-demand before its next pop. Far-future
 * events (lease expiries, DRAM activates, DMA window turnarounds)
 * spill into a binary heap and migrate into the calendar as the clock
 * approaches them.
 *
 * Dispatch runs one tick at a time: runBatch() executes the events of
 * the next pending tick, at most kBatchCap of them, so a driver
 * (guard::Watchdog::drain) looks at the queue once per batch instead
 * of once per event.
 *
 * Ordering is global (when, priority, sequence) order, proven by the
 * randomized property test in tests/test_event_queue.cc.
 */

#ifndef FUSION_SIM_EVENT_QUEUE_HH
#define FUSION_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "sim/logging.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace fusion
{

/** Callback type for scheduled events (allocation-free closure). */
using EventFn = sim::SmallFn<void()>;

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

    /** Most events one runBatch() executes, even within one tick, so
     *  the driver between batches still sees a same-tick livelock. */
    static constexpr std::size_t kBatchCap = 1024;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue() { destroyPending(); }

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn to run at absolute tick @p when. Templated on
     * the callable so the closure is constructed directly in its
     * node, where it later runs.
     * @pre when >= now()
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn,
             EventPriority pri = EventPriority::Default)
    {
        fusion_assert(when >= _now, "schedule in the past: when=", when,
                      " now=", _now);
        const int p = static_cast<int>(pri);
        fusion_assert(p >= kMinPriority && p <= kMaxPriority,
                      "event priority ", p,
                      " does not fit the packed key");
        Node *n = acquire();
        try {
            ::new (static_cast<void *>(&n->fn))
                EventFn(std::forward<F>(fn));
        } catch (...) {
            release(n);
            throw;
        }
        // 56 sequence bits outlast any run (2^56 events); the biased
        // priority above them orders first.
        const std::uint64_t key =
            (static_cast<std::uint64_t>(p - kMinPriority) << kSeqBits) |
            _nextSeq++;
        // _base <= _now at every external call and during event
        // execution, so the membership test below keeps all bucketed
        // events inside one window-length range (unique tick per
        // bucket slot).
        if (when - _base < kWindow) {
            pushBucket(when, Slot{key, n});
        } else {
            _spill.push_back(SpillSlot{when, key, n});
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

    /** Number of pending events (the running one excluded). */
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
        while (runTick(limit, kBatchCap) != 0) {
        }
        return _now;
    }

    /**
     * Execute the events of the next pending tick, at most kBatchCap
     * of them; events a batch schedules into its own tick run in the
     * same batch.
     * @return the number of events run (0 when the queue is empty).
     */
    std::size_t runBatch() { return runTick(kTickNever, kBatchCap); }

    /**
     * Execute exactly one event if any is pending.
     * @return true if an event ran.
     */
    bool step() { return runTick(kTickNever, 1) != 0; }

    /** Reset time and drop all pending events (for unit tests). */
    void
    reset()
    {
        destroyPending();
        _now = 0;
        _base = 0;
        _nextSeq = 0;
        _executed = 0;
    }

  private:
    static constexpr Tick kMask = kWindow - 1;
    static_assert((kWindow & kMask) == 0,
                  "calendar window must be a power of two");
    /** Priority range the packed (priority, seq) key can order. */
    static constexpr int kMinPriority = -128;
    static constexpr int kMaxPriority = 127;
    static constexpr unsigned kSeqBits = 56;
    static_assert(kMaxPriority - kMinPriority < (1 << (64 - kSeqBits)),
                  "priority range must fit above the sequence bits");

    /** Home of one closure, from construction to destruction. */
    struct Node
    {
        union
        {
            Node *next; ///< while on the freelist
            EventFn fn; ///< while queued or running
        };
        Node() {}
        ~Node() {}
    };

    /** Nodes come in chunks that never move; chunks are freed only
     *  with the queue. */
    static constexpr std::size_t kChunkNodes = 256;
    struct Chunk
    {
        std::unique_ptr<Chunk> next;
        Node nodes[kChunkNodes];
    };

    /** A bucketed event: packed (priority, seq) key and its node. */
    struct Slot
    {
        std::uint64_t key;
        Node *node;
    };

    /** A spilled event: full (when, key) order. */
    struct SpillSlot
    {
        Tick when;
        std::uint64_t key;
        Node *node;
    };

    /** Spill-heap comparator: a min-heap on (when, key). */
    struct Later
    {
        bool
        operator()(const SpillSlot &a, const SpillSlot &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.key > b.key;
        }
    };

    /**
     * One calendar slot. Appends are pops for the common case: fresh
     * schedules carry monotonically increasing sequence numbers, so
     * same-priority events are already in key order and the bucket
     * acts as a plain FIFO ([head, v.end()) is the live range). An
     * append whose key is below the last one (a lower priority in the
     * same tick) marks the bucket dirty and the next pop re-sorts the
     * live range once.
     */
    struct Bucket
    {
        std::vector<Slot> v;
        std::size_t head = 0;
        bool dirty = false;
    };

    Node *
    acquire()
    {
        if (_free == nullptr) [[unlikely]]
            grow();
        Node *n = _free;
        _free = n->next;
        return n;
    }

    void
    release(Node *n) noexcept
    {
        n->next = _free;
        _free = n;
    }

    /** Destroy a node's closure and return the node to the pool. */
    void
    retire(Node *n) noexcept
    {
        n->fn.~EventFn();
        release(n);
    }

    void
    grow()
    {
        std::unique_ptr<Chunk> c(new Chunk);
        for (std::size_t i = kChunkNodes; i-- > 0;)
            release(&c->nodes[i]);
        c->next = std::move(_chunks);
        _chunks = std::move(c);
    }

    void
    pushBucket(Tick when, Slot s)
    {
        auto idx = static_cast<std::size_t>(when & kMask);
        Bucket &b = _buckets[idx];
        if (!b.v.empty() && s.key < b.v.back().key)
            b.dirty = true;
        b.v.push_back(s);
        _occupied |= std::uint64_t{1} << idx;
    }

    /** Move spill events whose tick entered the calendar window. */
    void
    migrateNear()
    {
        while (!_spill.empty() &&
               _spill.front().when - _base < kWindow) {
            std::pop_heap(_spill.begin(), _spill.end(), Later{});
            SpillSlot s = _spill.back();
            _spill.pop_back();
            pushBucket(s.when, Slot{s.key, s.node});
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
        if (!_spill.empty())
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

    /**
     * Run up to @p cap events of the next tick, if it is at or before
     * @p limit. Each event leaves its slot before it runs, so
     * pending() excludes it and the bucket may grow under it; an
     * event that throws still has its closure destroyed.
     */
    std::size_t
    runTick(Tick limit, std::size_t cap)
    {
        if (_pending == 0)
            return 0;
        const Tick t = advanceTo(limit);
        if (t == kTickNever)
            return 0;
        fusion_assert(t >= _now, "event queue went backwards");
        _now = t;
        const auto idx = static_cast<std::size_t>(t & kMask);
        const std::uint64_t bit = std::uint64_t{1} << idx;
        Bucket &b = _buckets[idx];
        std::size_t ran = 0;
        do {
            if (b.dirty) {
                std::sort(b.v.begin() +
                              static_cast<std::ptrdiff_t>(b.head),
                          b.v.end(), [](const Slot &x, const Slot &y) {
                              return x.key < y.key;
                          });
                b.dirty = false;
            }
            Node *n = b.v[b.head].node;
            if (++b.head == b.v.size()) {
                b.v.clear(); // keeps capacity; steady state stays alloc-free
                b.head = 0;
                _occupied &= ~bit;
            }
            --_pending;
            ++_executed;
            ++ran;
            struct Retire
            {
                EventQueue &q;
                Node *n;
                ~Retire() { q.retire(n); }
            } done{*this, n};
            n->fn();
        } while (ran < cap && (_occupied & bit) != 0);
        return ran;
    }

    /** Destroy every pending closure exactly once and empty the
     *  ordering structures; the nodes go back to the pool. */
    void
    destroyPending() noexcept
    {
        for (Bucket &b : _buckets) {
            for (std::size_t i = b.head; i < b.v.size(); ++i)
                retire(b.v[i].node);
            b.v.clear();
            b.head = 0;
            b.dirty = false;
        }
        for (const SpillSlot &s : _spill)
            retire(s.node);
        _spill.clear();
        _occupied = 0;
        _pending = 0;
    }

    std::array<Bucket, kWindow> _buckets;
    std::uint64_t _occupied = 0;    ///< bit i: bucket i non-empty
    std::vector<SpillSlot> _spill;  ///< far-future min-heap
    std::unique_ptr<Chunk> _chunks; ///< node storage, newest first
    Node *_free = nullptr;          ///< pooled node freelist
    std::size_t _pending = 0;
    Tick _now = 0;
    Tick _base = 0; ///< calendar window base (<= _now at rest)
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
};

} // namespace fusion

#endif // FUSION_SIM_EVENT_QUEUE_HH
