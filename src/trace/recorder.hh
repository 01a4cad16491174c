/**
 * @file
 * Trace capture: instrumented arrays over which the benchmark
 * kernels execute *for real*.
 *
 * Each workload allocates its buffers from a VaAllocator (virtual
 * address space of the offloaded process), wraps them in Traced<T>
 * views, and runs its actual algorithm. Every element read/write is
 * recorded into the active invocation's operation stream together
 * with explicit operation-count annotations (intOps / fpOps) — the
 * same information the paper's toolchain extracts from the dynamic
 * data-dependence graph (Section 4).
 */

#ifndef FUSION_TRACE_RECORDER_HH
#define FUSION_TRACE_RECORDER_HH

#include <cstring>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace fusion::trace
{

/** Bump allocator for the offloaded process's virtual buffers. */
class VaAllocator
{
  public:
    explicit VaAllocator(Addr base = 0x10000000ull) : _next(base) {}

    /** Allocate @p bytes, page aligned. */
    Addr
    allocate(std::uint64_t bytes)
    {
        Addr a = _next;
        std::uint64_t aligned = (bytes + 4095) & ~4095ull;
        _next += aligned;
        return a;
    }

    Addr used() const { return _next; }

  private:
    Addr _next;
};

/** Destination streams the recorder can write to. */
enum class Phase
{
    Idle,
    HostInit,
    Invocation,
    HostFinal
};

/**
 * Builds a Program from an instrumented execution.
 */
class Recorder
{
  public:
    explicit Recorder(std::string program_name, Pid pid = 1);

    /** Register an accelerated function; returns its FuncId. */
    FuncId addFunction(const FunctionMeta &meta);

    /** Route subsequent ops to the host-init stream. */
    void beginHostInit();
    /** Route subsequent ops to the host-final stream. */
    void beginHostFinal();
    /** Open an invocation of @p func. */
    void beginInvocation(FuncId func);
    /** Close the current phase/invocation. */
    void end();

    /** Record one load/store/op-burst in the active stream. Op
     *  counts coalesce until the next memory op; counts past
     *  UINT32_MAX become several compute ops. */
    void load(Addr va, std::uint32_t size);
    void store(Addr va, std::uint32_t size);
    void intOps(std::uint32_t n) { _pendingInt += n; }
    void fpOps(std::uint32_t n) { _pendingFp += n; }

    /** Finish and take the program (recorder becomes empty). */
    Program take();

    const Program &program() const { return _prog; }

  private:
    std::vector<TraceOp> &activeStream();
    void flushCompute();

    Program _prog;
    Phase _phase = Phase::Idle;
    std::uint64_t _pendingInt = 0;
    std::uint64_t _pendingFp = 0;
};

/**
 * An instrumented array of T. Element access through operator[]
 * returns a proxy that records the load/store against the recorder.
 */
template <typename T>
class Traced
{
  public:
    Traced(Recorder &rec, VaAllocator &va, std::size_t n)
        : _rec(rec), _base(va.allocate(n * sizeof(T))), _data(n)
    {
    }

    /** Proxy for one element. */
    class Ref
    {
      public:
        Ref(Traced &arr, std::size_t i) : _arr(arr), _i(i) {}

        /** Read: records a load. */
        operator T() const // NOLINT(google-explicit-constructor)
        {
            return _arr.read(_i);
        }

        Ref &
        operator=(T v)
        {
            _arr.write(_i, v);
            return *this;
        }

        Ref &
        operator=(const Ref &o)
        {
            _arr.write(_i, static_cast<T>(o));
            return *this;
        }

        Ref &
        operator+=(T v)
        {
            _arr.write(_i, _arr.read(_i) + v);
            return *this;
        }

      private:
        Traced &_arr;
        std::size_t _i;
    };

    Ref operator[](std::size_t i) { return Ref(*this, i); }

    /** Instrumented element read. */
    T
    read(std::size_t i) const
    {
        fusion_assert(i < _data.size(), "Traced read OOB: ", i);
        _rec.load(addrOf(i), sizeof(T));
        return _data[i];
    }

    /** Instrumented element write. */
    void
    write(std::size_t i, T v)
    {
        fusion_assert(i < _data.size(), "Traced write OOB: ", i);
        _rec.store(addrOf(i), sizeof(T));
        _data[i] = v;
    }

    /** Un-instrumented access (result verification / golden init). */
    T peek(std::size_t i) const { return _data[i]; }
    void poke(std::size_t i, T v) { _data[i] = v; }

    std::size_t size() const { return _data.size(); }
    Addr baseVa() const { return _base; }
    std::uint64_t bytes() const { return _data.size() * sizeof(T); }
    Addr addrOf(std::size_t i) const { return _base + i * sizeof(T); }

  private:
    Recorder &_rec;
    Addr _base;
    std::vector<T> _data;
};

/**
 * Record a host phase that touches every line of an array: the host
 * writing inputs (init) or reading outputs (final).
 */
template <typename T>
void
hostTouchArray(Recorder &rec, const Traced<T> &arr, bool is_write)
{
    for (Addr a = lineAlign(arr.baseVa());
         a < arr.baseVa() + arr.bytes(); a += kLineBytes) {
        if (is_write)
            rec.store(a, kLineBytes);
        else
            rec.load(a, kLineBytes);
    }
}

} // namespace fusion::trace

#endif // FUSION_TRACE_RECORDER_HH
