/**
 * @file
 * Span vocabulary for the telemetry subsystem.
 *
 * A *span* is one protocol-transaction lifecycle: begin tick, end
 * tick, the component track it ran on, the line address it concerned
 * and a SpanKind saying which protocol seam produced it. Spans may
 * carry up to two *phase marks* — named instants inside the span
 * (e.g. the tick a lease request stalled on a write epoch) that
 * export as Perfetto args.
 */

#ifndef FUSION_OBS_SPAN_HH
#define FUSION_OBS_SPAN_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "sim/types.hh"

namespace fusion::obs
{

/**
 * Which protocol seam a span was recorded at. Used both as the
 * Perfetto category and as the bit index for --trace-kinds
 * filtering.
 */
enum class SpanKind : std::uint8_t
{
    Invocation, ///< accelerator function invocation (System)
    Access,     ///< L0X access, ACC or MESI tile protocol
    Lease,      ///< L1X timestamp-lease transaction (ACC protocol)
    MesiReq,    ///< L1X directory transaction (MESI tile protocol)
    LlcReq,     ///< host LLC/directory transaction
    HostFwd,    ///< host-initiated forward buffered at the L1X
    Dma,        ///< DMA operation / per-line chunk (SCRATCH)
    LinkMsg,    ///< message traversing an interconnect link
    ModeSwitch, ///< orchestrator coherence-mode transition (AUTO)
    NumKinds,
};

/** Stable lower-case name, e.g. "lease"; also the Perfetto category. */
const char *spanKindName(SpanKind kind);

/** Bit for @p kind in an ObsConfig::traceKindMask. */
constexpr std::uint32_t
spanKindBit(SpanKind kind)
{
    return std::uint32_t{1} << static_cast<unsigned>(kind);
}

/**
 * Parse a comma-separated list of span-kind names ("lease,llc_req")
 * into a traceKindMask. Names are matched case-insensitively against
 * spanKindName(); surrounding whitespace is trimmed. An empty spec
 * selects every kind. On an unknown name, returns 0 and, when @p err
 * is non-null, stores a message naming the offender and the valid
 * vocabulary.
 */
std::uint32_t parseKindMask(std::string_view spec, std::string *err);

/** A named instant inside a span. @c name must be a static string. */
struct SpanPhase
{
    const char *name = nullptr;
    Tick tick = 0;
};

/** One completed span, as retained in the SpanTracer ring buffer. */
struct SpanRecord
{
    Tick begin = 0;
    Tick end = 0;
    /** Line address (or small integer id for kinds without one). */
    Addr addr = 0;
    /** Record sequence number: total order of span completion. */
    std::uint64_t seq = 0;
    /** Track id from SpanTracer::registerTrack. */
    std::uint32_t track = 0;
    SpanKind kind = SpanKind::Access;
    std::uint8_t numPhases = 0;
    std::array<SpanPhase, 2> phases{};
};

} // namespace fusion::obs

#endif // FUSION_OBS_SPAN_HH
