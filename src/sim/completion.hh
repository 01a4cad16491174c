/**
 * @file
 * Completion: the value a memory operation's "done" travels as.
 *
 * Every load and store an accelerator or the host core issues carries
 * one completion from the port to wherever the operation commits: the
 * L0X lookup, an MSHR target, the host L1's bank-latency event, the
 * SHARED port's response leg. Each of those holds it inside another
 * closure, usually a SmallFn event. If the completion were itself a
 * SmallFn (80 bytes), every such closure would overflow SmallFn's
 * 64-byte inline buffer and take a block from the slab, once per hop.
 *
 * A Completion is 24 bytes: an invoke pointer and at most 16 bytes of
 * trivially copyable capture (a component pointer plus a scalar or
 * two). The constructor is constrained to exactly such callables, so
 * a closure that carries one stays trivially copyable and fits
 * inline, and a Completion can never own another closure: SmallFn
 * stays the one owning closure type. A completion that needs more
 * state parks it in its component and captures an index.
 */

#ifndef FUSION_SIM_COMPLETION_HH
#define FUSION_SIM_COMPLETION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace fusion::sim
{

/** Trivially copyable void() callable with 16 bytes of capture. */
class Completion
{
  public:
    static constexpr std::size_t kCaptureBytes = 16;

    /** Callables a Completion may hold: trivially copyable,
     *  invocable as const, at most kCaptureBytes, pointer-aligned. */
    template <typename F>
    static constexpr bool kHolds =
        std::is_trivially_copyable_v<F> &&
        sizeof(F) <= kCaptureBytes && alignof(F) <= alignof(void *) &&
        std::is_invocable_v<const F &>;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Completion> &&
                  kHolds<std::decay_t<F>>>>
    Completion(F &&f) noexcept // NOLINT: implicit like SmallFn
        : _invoke(&invokeAs<std::decay_t<F>>)
    {
        ::new (static_cast<void *>(_capture))
            std::decay_t<F>(std::forward<F>(f));
    }

    void operator()() const { _invoke(_capture); }

  private:
    template <typename F>
    static void
    invokeAs(const void *p)
    {
        (*std::launder(static_cast<const F *>(p)))();
    }

    void (*_invoke)(const void *);
    // Zeroed so a copy never reads indeterminate tail bytes.
    alignas(void *) unsigned char _capture[kCaptureBytes] = {};
};

static_assert(sizeof(Completion) == 24);
static_assert(std::is_trivially_copyable_v<Completion>);

} // namespace fusion::sim

#endif // FUSION_SIM_COMPLETION_HH
