/**
 * @file
 * SmallFn: the allocation-free move-only closure used on every
 * transaction path in the simulator.
 *
 * std::function pays a heap allocation for any capture set past its
 * tiny SSO buffer (16 bytes on the common ABIs), and most
 * continuations in this simulator capture a component pointer plus a
 * downstream continuation — so the old std::function callback types
 * put one allocator round-trip on the hot path of every cache
 * transaction (lease grants, MSHR targets, forwarded-request
 * completions, DMA line callbacks).
 *
 * SmallFn<R(Args...)> is the simulator's one owning closure type, for
 * every signature (the event queue's EventFn is SmallFn<void()>):
 * kInlineBytes of in-object storage sized for the common capture sets
 * (component pointer + address + flags + a tick + a memory-op
 * completion, which is a 24-byte sim::Completion value, not a
 * SmallFn). Closures that fit are constructed directly in the buffer
 * and never touch the allocator. Oversized closures — one that
 * carries a moved-in SmallFn is wider than the buffer, as on the miss
 * paths — fall back to a per-thread slab freelist of fixed-size
 * blocks, so even a fat capture costs a pointer pop instead of a
 * malloc once the simulation reaches steady state.
 *
 * The type is deliberately *not* a general std::function
 * replacement: no copy, no target(), no allocators — exactly what a
 * fire-once continuation needs and nothing the hot path has to pay
 * for.
 */

#ifndef FUSION_SIM_SMALL_FN_HH
#define FUSION_SIM_SMALL_FN_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace fusion
{

namespace detail
{

/** Block size of the oversized-closure slab (covers every capture
 *  set in the tree today; larger ones use plain new/delete). */
constexpr std::size_t kEventSlabBytes = 256;

struct EventSlabNode
{
    EventSlabNode *next;
};

/**
 * Per-thread freelist. Each simulated system runs entirely on one
 * thread (the sweep engine gives every job its own worker), so a
 * thread-local list needs no locks; a block freed on a different
 * thread than it was allocated on simply migrates lists, which is
 * still safe.
 *
 * The hot state is two constinit, trivially destructible
 * thread_locals, so every access is a plain TLS load with no
 * init-function call. Cleanup rides on a separate function-local
 * thread_local (EventSlabReaper) that the release path arms once per
 * thread: it hands the retained blocks back at thread exit — sweep
 * workers are short-lived, and without it every worker would strand
 * its slab high-water mark (LeakSanitizer flags exactly that under
 * -DFUSION_ASAN=ON). Blocks still owned by live SmallFns at that
 * point are freed later by whichever thread destroys them.
 */
inline constinit thread_local EventSlabNode *eventSlabFree = nullptr;
inline constinit thread_local bool eventSlabArmed = false;

/** Frees the calling thread's freelist when the thread exits. */
struct EventSlabReaper
{
    ~EventSlabReaper()
    {
        while (EventSlabNode *n = eventSlabFree) {
            eventSlabFree = n->next;
            ::operator delete(n);
        }
    }
};

/** Arm the calling thread's reaper (first release only). */
inline void
armEventSlabReaper()
{
    static thread_local EventSlabReaper reaper;
    (void)reaper;
    eventSlabArmed = true;
}

inline void *
eventSlabAlloc(std::size_t bytes)
{
    if (bytes <= kEventSlabBytes) {
        if (EventSlabNode *n = eventSlabFree) {
            eventSlabFree = n->next;
            return n;
        }
        return ::operator new(kEventSlabBytes);
    }
    return ::operator new(bytes);
}

inline void
eventSlabRelease(void *p, std::size_t bytes)
{
    if (bytes <= kEventSlabBytes) {
        if (!eventSlabArmed) [[unlikely]]
            armEventSlabReaper();
        auto *n = static_cast<EventSlabNode *>(p);
        n->next = eventSlabFree;
        eventSlabFree = n;
        return;
    }
    ::operator delete(p);
}

} // namespace detail

namespace sim
{

template <typename Signature>
class SmallFn;

/** Move-only, small-buffer-optimized R(Args...) closure. */
template <typename R, typename... Args>
class SmallFn<R(Args...)>
{
  public:
    /** In-object closure storage. 64 bytes holds a this-pointer,
     *  a few scalars and one sim::Completion, which covers the hit
     *  paths in l0x/host_l1 and the ports; a closure carrying a
     *  whole SmallFn takes the slab. */
    static constexpr std::size_t kInlineBytes = 64;

    SmallFn() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &,
                                        Args...>>>
    SmallFn(F &&f) // NOLINT: implicit like std::function
    {
        emplace(std::forward<F>(f));
    }

    SmallFn(SmallFn &&other) noexcept : _ops(other._ops)
    {
        if (_ops) {
            relocateFrom(other);
            other._ops = nullptr;
        }
    }

    SmallFn &
    operator=(SmallFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            _ops = other._ops;
            if (_ops) {
                relocateFrom(other);
                other._ops = nullptr;
            }
        }
        return *this;
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    explicit operator bool() const noexcept { return _ops != nullptr; }

    R
    operator()(Args... args)
    {
        return _ops->invoke(_buf, std::forward<Args>(args)...);
    }

    /** Destroy the held closure (no-op when empty). */
    void
    reset() noexcept
    {
        if (_ops) {
            if (!_ops->trivialDestroy)
                _ops->destroy(_buf);
            _ops = nullptr;
        }
    }

    /** True when the closure lives in the inline buffer (tests). */
    bool
    isInline() const noexcept
    {
        return _ops != nullptr && _ops->inlineStored;
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        bool inlineStored;
        /** Relocation is equivalent to copying the raw buffer: true
         *  for trivially copyable inline closures (the common case —
         *  component pointer + scalars) and for the heap path (the
         *  buffer holds only the block pointer). Moves then run a
         *  fixed-size memcpy instead of an indirect call. */
        bool trivialRelocate;
        /** Destruction is a no-op (trivially destructible inline
         *  closures), so the destructor skips the indirect call. */
        bool trivialDestroy;
    };

    /** Move the closure payload of @p other (same _ops) into _buf. */
    void
    relocateFrom(SmallFn &other) noexcept
    {
        // The fixed-size copy deliberately reads the buffer past the
        // closure's own footprint — a constant-length memcpy beats a
        // length-dispatched one and the tail bytes are never
        // interpreted. GCC's flow analysis flags those tail reads.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
        if (_ops->trivialRelocate)
            std::memcpy(_buf, other._buf, kInlineBytes);
        else
            _ops->relocate(_buf, other._buf);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    }

    template <typename Fn>
    static constexpr bool kFitsInline =
        sizeof(Fn) <= kInlineBytes &&
        alignof(Fn) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<Fn>;

    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (kFitsInline<Fn>) {
            ::new (static_cast<void *>(_buf))
                Fn(std::forward<F>(f));
            static constexpr Ops ops = {
                [](void *p, Args &&...args) -> R {
                    return (*std::launder(
                        reinterpret_cast<Fn *>(p)))(
                        std::forward<Args>(args)...);
                },
                [](void *dst, void *src) noexcept {
                    Fn *s = std::launder(reinterpret_cast<Fn *>(src));
                    ::new (dst) Fn(std::move(*s));
                    s->~Fn();
                },
                [](void *p) noexcept {
                    std::launder(reinterpret_cast<Fn *>(p))->~Fn();
                },
                true,
                std::is_trivially_copyable_v<Fn>,
                std::is_trivially_destructible_v<Fn>,
            };
            _ops = &ops;
        } else {
            static_assert(alignof(Fn) <= alignof(std::max_align_t),
                          "over-aligned closures unsupported");
            void *mem = detail::eventSlabAlloc(sizeof(Fn));
            ::new (mem) Fn(std::forward<F>(f));
            *reinterpret_cast<void **>(_buf) = mem;
            static constexpr Ops ops = {
                [](void *p, Args &&...args) -> R {
                    return (**reinterpret_cast<Fn **>(p))(
                        std::forward<Args>(args)...);
                },
                [](void *dst, void *src) noexcept {
                    *reinterpret_cast<void **>(dst) =
                        *reinterpret_cast<void **>(src);
                },
                [](void *p) noexcept {
                    Fn *fn = *reinterpret_cast<Fn **>(p);
                    fn->~Fn();
                    detail::eventSlabRelease(fn, sizeof(Fn));
                },
                false,
                true,  // buffer holds just the block pointer
                false, // block must be released
            };
            _ops = &ops;
        }
    }

    const Ops *_ops = nullptr;
    alignas(std::max_align_t) unsigned char _buf[kInlineBytes];
};

} // namespace sim

} // namespace fusion

#endif // FUSION_SIM_SMALL_FN_HH
