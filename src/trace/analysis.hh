/**
 * @file
 * Post-processing analyses over captured traces.
 *
 * These reproduce the paper's trace-derived inputs:
 *  - per-function operation mix and sharing degree (Table 1),
 *  - working-set footprints (Table 6d),
 *  - DMA window segmentation for the oracle SCRATCH baseline
 *    (Section 4: working sets larger than the scratchpad are
 *    "segmented into windows of execution with DMA operations
 *    required for each window"),
 *  - producer->consumer store identification for FUSION-Dx
 *    (Section 3.2: "we post process the trace to identify the stores
 *    to be forwarded").
 */

#ifndef FUSION_TRACE_ANALYSIS_HH
#define FUSION_TRACE_ANALYSIS_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/trace.hh"

namespace fusion::trace
{

/** Per-function characteristics (Table 1 rows). */
struct FunctionProfile
{
    std::string name;
    double pctTime = 0.0; ///< filled by the runner (host cycles)
    double pctInt = 0.0;
    double pctFp = 0.0;
    double pctLd = 0.0;
    double pctSt = 0.0;
    double sharePct = 0.0; ///< %SHR
    std::uint32_t mlp = 0;
    Cycles leaseTime = 0;
    std::uint64_t memOps = 0;
    std::uint64_t intOps = 0;
    std::uint64_t fpOps = 0;
    std::uint64_t footprintLines = 0;
};

/**
 * A set of line addresses in one flat open-addressed slot array, so
 * it allocates when it grows, not once per line as a node-based set
 * does. Keys must be line-aligned.
 */
class LineSet
{
  public:
    /** Make room for @p n lines, so n inserts never grow the set. */
    void reserve(std::size_t n);
    /** Insert @p line; true if it was not in the set. */
    bool insert(Addr line);
    bool contains(Addr line) const;
    std::size_t size() const { return _size; }
    /** Remove every line, keeping the capacity. */
    void clear();

  private:
    /// Never a line address: its low bits are set.
    static constexpr Addr kEmpty = ~Addr{0};

    /** The slot holding @p line, or the empty slot it would take. */
    std::size_t find(Addr line) const;
    void rehash(std::size_t slots);

    std::vector<Addr> _slots; ///< power of two, at most half full
    std::size_t _size = 0;
};

/** Compute op-mix and %SHR for every function of @p prog. */
std::vector<FunctionProfile> profileFunctions(const Program &prog);

/** Unique lines touched by all invocations (accelerator footprint). */
std::uint64_t footprintLines(const Program &prog);

/** Unique lines touched by one op stream. */
std::uint64_t footprintLines(const std::vector<TraceOp> &ops);

/** One DMA window of a SCRATCH-mode invocation. */
struct DmaWindow
{
    std::size_t beginOp = 0; ///< [beginOp, endOp) into the op stream
    std::size_t endOp = 0;
    std::vector<Addr> readLines;  ///< lines DMA must pre-load (sorted)
    std::vector<Addr> dirtyLines; ///< lines DMA must drain after (sorted)
};

/**
 * Segment an invocation into windows whose footprint fits the
 * scratchpad.
 *
 * A line counts against capacity from its first access. Lines that
 * are loaded at any point in the window enter the read set (the
 * oracle "only DMAs read data in and dirty data out", Section 4);
 * lines stored to enter the dirty set.
 */
std::vector<DmaWindow> segmentWindows(const Invocation &inv,
                                      std::uint64_t scratch_lines);

/** Forwarding plan for FUSION-Dx: per invocation, per dirty line,
 *  the consumer accelerator to push the line to. */
using ForwardPlan =
    std::unordered_map<std::uint32_t,
                       std::unordered_map<Addr, AccelId>>;

/**
 * Identify producer->consumer stores: a line whose next toucher
 * after invocation i (the producer) is a *load* by a *different*
 * accelerator becomes a forward candidate of invocation i
 * (Section 3.2: "we post process the trace to identify the stores
 * to be forwarded").
 */
ForwardPlan planForwarding(const Program &prog);

/**
 * Inter-invocation dependences for overlapped execution.
 *
 * The offloaded program is sequential, but invocations without
 * memory conflicts can safely run concurrently on different
 * accelerators (the overlap the paper's Figure 5 timeline depicts).
 * deps[j] lists every earlier invocation j must wait for:
 *  - RAW: j reads a line some i < j wrote,
 *  - WAW: j writes a line some i < j wrote,
 *  - WAR: j writes a line some i < j read.
 * Same-accelerator ordering is enforced by the scheduler (one core
 * per accelerator), not recorded here.
 */
std::vector<std::vector<std::uint32_t>>
invocationDependences(const Program &prog);

/** Summary numbers for Table 6d. */
struct WorkingSet
{
    std::uint64_t lines = 0;
    double kilobytes() const
    {
        return static_cast<double>(lines * kLineBytes) / 1024.0;
    }
};

WorkingSet workingSet(const Program &prog);

} // namespace fusion::trace

#endif // FUSION_TRACE_ANALYSIS_HH
