/**
 * @file
 * Ring-buffered transaction span recorder.
 *
 * One SpanTracer lives per SimContext (inside obs::Telemetry) and is
 * only instantiated when tracing is armed, so components gate all
 * instrumentation on a single cached `SpanTracer *` null check.
 *
 * Spans are keyed by (track, kind, address) while open. Re-entrant
 * begins on the same key (e.g. secondary MSHR targets joining an
 * outstanding miss) nest: the span opens at the first begin and
 * closes at the matching last end, which keeps the export free of
 * overlapping same-track duplicates and — because the simulator is
 * deterministic — makes the recorded stream byte-stable across runs.
 *
 * Storage is a fixed-capacity ring: the tracer allocates its slab
 * up front and recycles the oldest record once full, so steady-state
 * tracing performs no heap allocation on the hot path.
 */

#ifndef FUSION_OBS_SPAN_TRACER_HH
#define FUSION_OBS_SPAN_TRACER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/obs_config.hh"
#include "obs/span.hh"

namespace fusion::obs
{

class SpanTracer
{
  public:
    explicit SpanTracer(const ObsConfig &cfg);

    /**
     * Register a component track (one Perfetto thread row). Call
     * once at construction; construction order is deterministic, so
     * track ids are too.
     */
    std::uint32_t registerTrack(const std::string &name);

    /** True when @p kind passes the configured kind filter. */
    bool
    wants(SpanKind kind) const
    {
        return (_mask >> static_cast<unsigned>(kind)) & 1u;
    }

    /** Open (or nest into) the span keyed by (track, kind, addr). */
    void begin(std::uint32_t track, SpanKind kind, Addr addr, Tick now);

    /**
     * Attach a phase mark to the open span with this key. No-op when
     * no such span is open or both phase slots are taken. @p name
     * must be a static string.
     */
    void phase(std::uint32_t track, SpanKind kind, Addr addr,
               const char *name, Tick now);

    /** Close one nesting level; records the span at the last end. */
    void end(std::uint32_t track, SpanKind kind, Addr addr, Tick now);

    /** Record a span whose duration is known up front (no open state). */
    void complete(std::uint32_t track, SpanKind kind, Addr addr,
                  Tick begin_tick, Tick end_tick);

    /** Track names, indexed by track id. */
    const std::vector<std::string> &
    tracks() const
    {
        return _tracks;
    }

    /** Retained spans in (begin, seq) order — stable and chronological. */
    std::vector<SpanRecord> sortedSpans() const;

    /** Total spans recorded, including ones since overwritten. */
    std::uint64_t
    recorded() const
    {
        return _recorded;
    }

    /** Spans lost to ring overwrite. */
    std::uint64_t
    dropped() const
    {
        return _dropped;
    }

    /** Spans currently held in the ring. */
    std::size_t
    retained() const
    {
        return _ring.size();
    }

  private:
    struct OpenKey
    {
        Addr addr;
        std::uint32_t track;
        SpanKind kind;

        bool
        operator==(const OpenKey &o) const
        {
            return addr == o.addr && track == o.track && kind == o.kind;
        }
    };

    struct OpenKeyHash
    {
        std::size_t
        operator()(const OpenKey &k) const
        {
            // splitmix64-style mix over the packed key fields.
            std::uint64_t x = k.addr ^
                (std::uint64_t{k.track} << 40) ^
                (std::uint64_t{static_cast<unsigned>(k.kind)} << 32);
            x ^= x >> 30;
            x *= 0xbf58476d1ce4e5b9ull;
            x ^= x >> 27;
            x *= 0x94d049bb133111ebull;
            x ^= x >> 31;
            return static_cast<std::size_t>(x);
        }
    };

    struct OpenSpan
    {
        Tick begin = 0;
        std::uint32_t nested = 0;
        std::uint8_t numPhases = 0;
        std::array<SpanPhase, 2> phases{};
    };

    void record(const SpanRecord &rec);

    std::uint32_t _mask;
    std::size_t _capacity;
    std::size_t _head = 0; ///< oldest record once the ring is full
    std::uint64_t _nextSeq = 0;
    std::uint64_t _recorded = 0;
    std::uint64_t _dropped = 0;
    std::vector<SpanRecord> _ring;
    std::vector<std::string> _tracks;
    std::unordered_map<OpenKey, OpenSpan, OpenKeyHash> _open;
};

} // namespace fusion::obs

#endif // FUSION_OBS_SPAN_TRACER_HH
