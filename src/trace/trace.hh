/**
 * @file
 * Dynamic-trace representation of an offloaded program.
 *
 * The paper's toolchain profiles each application, extracts the hot
 * functions, and replays a constrained dynamic data-dependence graph
 * per accelerator (Section 4, "Modelling accelerator cores"). We
 * reproduce the same structure: every benchmark executes for real
 * (over instrumented arrays) and records, per *invocation* of an
 * accelerated function, the program-ordered stream of memory
 * references and the operation counts between them.
 *
 * Addresses in traces are *virtual*; the accelerator tile operates
 * on VAs and the vm module translates at the tile boundary
 * (Section 3.2).
 */

#ifndef FUSION_TRACE_TRACE_HH
#define FUSION_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace fusion::trace
{

/** Kind of a trace operation. */
enum class OpKind : std::uint8_t
{
    Load,
    Store,
    Compute
};

/**
 * One dynamic operation, 16 bytes: traces are the simulator's
 * largest data structure, so every op pays for its layout many
 * million times over.
 *
 * A load or store reads `addr` and `size`. A compute op has no
 * address; its integer and floating-point op counts are packed into
 * the address word (intOps() low, fpOps() high), so a reader checks
 * `kind` before it reads `addr`.
 */
struct TraceOp
{
    OpKind kind = OpKind::Compute;
    std::uint32_t size = 0; ///< access size in bytes (mem ops)
    Addr addr = 0; ///< virtual address (mem ops); op counts (compute)

    /** Integer ops of a compute op (0 for a load or store). */
    std::uint32_t
    intOps() const
    {
        return kind == OpKind::Compute ? static_cast<std::uint32_t>(addr)
                                       : 0;
    }
    /** Floating-point ops of a compute op (0 for a load or store). */
    std::uint32_t
    fpOps() const
    {
        return kind == OpKind::Compute
                   ? static_cast<std::uint32_t>(addr >> 32)
                   : 0;
    }

    static TraceOp
    load(Addr a, std::uint32_t sz)
    {
        return TraceOp{OpKind::Load, sz, a};
    }
    static TraceOp
    store(Addr a, std::uint32_t sz)
    {
        return TraceOp{OpKind::Store, sz, a};
    }
    static TraceOp
    compute(std::uint32_t int_ops, std::uint32_t fp_ops)
    {
        return TraceOp{OpKind::Compute, 0,
                       Addr{int_ops} | Addr{fp_ops} << 32};
    }
};

static_assert(sizeof(TraceOp) == 16, "TraceOp is 16 bytes");

/** Static description of one accelerated function. */
struct FunctionMeta
{
    std::string name;
    AccelId accel = 0;   ///< the fixed-function unit running it
    std::uint32_t mlp = 4; ///< max outstanding memory ops (Table 1)
    Cycles leaseTime = 500; ///< ACC lease length LT (Table 3)
};

/** One dynamic invocation of an accelerated function. */
struct Invocation
{
    FuncId func = kNoFunc;
    std::vector<TraceOp> ops;
};

/** A full program: host phases + accelerated invocations in order. */
struct Program
{
    std::string name;
    Pid pid = 1;
    std::vector<FunctionMeta> functions;
    std::vector<Invocation> invocations;
    /** Host writes the input arrays before offload begins. */
    std::vector<TraceOp> hostInit;
    /** Host consumes the outputs after the last invocation. */
    std::vector<TraceOp> hostFinal;

    /** Number of distinct accelerators used. */
    std::uint32_t
    accelCount() const
    {
        std::uint32_t n = 0;
        for (const auto &f : functions)
            n = f.accel + 1 > static_cast<AccelId>(n)
                    ? static_cast<std::uint32_t>(f.accel + 1)
                    : n;
        return n;
    }

    /** Total memory operations across all invocations. */
    std::uint64_t memOpCount() const;
    /** Total trace operations across all invocations. */
    std::uint64_t opCount() const;
};

} // namespace fusion::trace

#endif // FUSION_TRACE_TRACE_HH
