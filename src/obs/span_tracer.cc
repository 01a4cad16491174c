/**
 * @file
 * SpanTracer implementation plus the SpanKind name table and the
 * --trace-kinds mask parser.
 */

#include "obs/span_tracer.hh"

#include <algorithm>
#include <cctype>

namespace fusion::obs
{

namespace
{

constexpr const char *kKindNames[] = {
    "invocation", "access",   "lease", "mesi_req",
    "llc_req",    "host_fwd", "dma",   "link_msg",
    "mode_switch",
};

static_assert(sizeof(kKindNames) / sizeof(kKindNames[0]) ==
                  static_cast<std::size_t>(SpanKind::NumKinds),
              "kind name table out of sync with SpanKind");

std::string
lowerTrim(std::string_view s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    std::string out(s.substr(b, e - b));
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

} // namespace

const char *
spanKindName(SpanKind kind)
{
    auto idx = static_cast<std::size_t>(kind);
    if (idx >= static_cast<std::size_t>(SpanKind::NumKinds))
        return "unknown";
    return kKindNames[idx];
}

std::uint32_t
parseKindMask(std::string_view spec, std::string *err)
{
    if (lowerTrim(spec).empty())
        return ~0u;

    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string_view::npos)
            comma = spec.size();
        std::string name = lowerTrim(spec.substr(pos, comma - pos));
        pos = comma + 1;
        if (name.empty())
            continue;
        bool found = false;
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(SpanKind::NumKinds); ++k) {
            if (name == kKindNames[k]) {
                mask |= spanKindBit(static_cast<SpanKind>(k));
                found = true;
                break;
            }
        }
        if (!found) {
            if (err) {
                std::string valid;
                for (auto *n : kKindNames) {
                    if (!valid.empty())
                        valid += ", ";
                    valid += n;
                }
                *err = "unknown span kind '" + name + "' (valid: " +
                       valid + ")";
            }
            return 0;
        }
    }
    return mask;
}

SpanTracer::SpanTracer(const ObsConfig &cfg)
    : _mask(cfg.traceKindMask),
      _capacity(std::max<std::size_t>(cfg.traceLimit, 1))
{
    _ring.reserve(_capacity);
    // Transactions in flight at once are bounded by MSHR/queue
    // capacities; 256 buckets keeps the open map re-hash free for
    // every in-tree configuration.
    _open.reserve(256);
}

std::uint32_t
SpanTracer::registerTrack(const std::string &name)
{
    _tracks.push_back(name);
    return static_cast<std::uint32_t>(_tracks.size() - 1);
}

void
SpanTracer::begin(std::uint32_t track, SpanKind kind, Addr addr, Tick now)
{
    if (!wants(kind))
        return;
    OpenSpan &o = _open[OpenKey{addr, track, kind}];
    if (o.nested++ == 0) {
        o.begin = now;
        o.numPhases = 0;
    }
}

void
SpanTracer::phase(std::uint32_t track, SpanKind kind, Addr addr,
                  const char *name, Tick now)
{
    if (!wants(kind))
        return;
    auto it = _open.find(OpenKey{addr, track, kind});
    if (it == _open.end())
        return;
    OpenSpan &o = it->second;
    if (o.numPhases < o.phases.size())
        o.phases[o.numPhases++] = SpanPhase{name, now};
}

void
SpanTracer::end(std::uint32_t track, SpanKind kind, Addr addr, Tick now)
{
    if (!wants(kind))
        return;
    auto it = _open.find(OpenKey{addr, track, kind});
    if (it == _open.end())
        return; // unmatched end — instrumentation seam fired cold
    OpenSpan &o = it->second;
    if (--o.nested > 0)
        return;
    SpanRecord rec;
    rec.begin = o.begin;
    rec.end = now;
    rec.addr = addr;
    rec.track = track;
    rec.kind = kind;
    rec.numPhases = o.numPhases;
    rec.phases = o.phases;
    _open.erase(it);
    record(rec);
}

void
SpanTracer::complete(std::uint32_t track, SpanKind kind, Addr addr,
                     Tick begin_tick, Tick end_tick)
{
    if (!wants(kind))
        return;
    SpanRecord rec;
    rec.begin = begin_tick;
    rec.end = end_tick;
    rec.addr = addr;
    rec.track = track;
    rec.kind = kind;
    record(rec);
}

void
SpanTracer::record(const SpanRecord &rec)
{
    ++_recorded;
    if (_ring.size() < _capacity) {
        _ring.push_back(rec);
        _ring.back().seq = _nextSeq++;
    } else {
        _ring[_head] = rec;
        _ring[_head].seq = _nextSeq++;
        _head = (_head + 1) % _capacity;
        ++_dropped;
    }
}

std::vector<SpanRecord>
SpanTracer::sortedSpans() const
{
    std::vector<SpanRecord> out = _ring;
    std::sort(out.begin(), out.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  if (a.begin != b.begin)
                      return a.begin < b.begin;
                  return a.seq < b.seq;
              });
    return out;
}

} // namespace fusion::obs
