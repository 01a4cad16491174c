/**
 * @file
 * RunResult aggregate helpers and JSON serialization.
 */

#include "core/results.hh"

#include <cstdio>
#include <sstream>
#include <utility>

#include "energy/energy_ledger.hh"
#include "sim/wire.hh"

namespace fusion::core
{

namespace
{

/** Escape a string for a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Shortest round-trippable decimal rendering of a double. */
void
putDouble(std::ostream &os, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

void
putMap(std::ostream &os, const char *key,
       const std::map<std::string, double> &m)
{
    os << ",\"" << key << "\":{";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ",") << '"' << jsonEscape(k) << "\":";
        putDouble(os, v);
        first = false;
    }
    os << '}';
}

void
putMap(std::ostream &os, const char *key,
       const std::map<std::string, std::uint64_t> &m)
{
    os << ",\"" << key << "\":{";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ",") << '"' << jsonEscape(k)
           << "\":" << v;
        first = false;
    }
    os << '}';
}

void
putUint(std::ostream &os, const char *key, std::uint64_t v)
{
    os << ",\"" << key << "\":" << v;
}

/** RunResult's plain counters, in JSON and FRES blob order. */
constexpr std::pair<const char *, std::uint64_t RunResult::*> kCounters[] = {
    {"l0xL1xCtrlMsgs", &RunResult::l0xL1xCtrlMsgs},
    {"l0xL1xDataMsgs", &RunResult::l0xL1xDataMsgs},
    {"l0xL1xFlits", &RunResult::l0xL1xFlits},
    {"l1xL2CtrlMsgs", &RunResult::l1xL2CtrlMsgs},
    {"l1xL2DataMsgs", &RunResult::l1xL2DataMsgs},
    {"l0xL0xDataMsgs", &RunResult::l0xL0xDataMsgs},
    {"axTlbLookups", &RunResult::axTlbLookups},
    {"axRmapLookups", &RunResult::axRmapLookups},
    {"fwdsToTile", &RunResult::fwdsToTile},
    {"dmaOps", &RunResult::dmaOps},
    {"dmaBytes", &RunResult::dmaBytes},
    {"workingSetBytes", &RunResult::workingSetBytes},
    {"l0xFills", &RunResult::l0xFills},
    {"l0xWritebacks", &RunResult::l0xWritebacks},
    {"l0xForwards", &RunResult::l0xForwards},
    {"l1xHits", &RunResult::l1xHits},
    {"l1xMisses", &RunResult::l1xMisses},
};

} // namespace

double
RunResult::component(const std::string &name) const
{
    auto it = energyPj.find(name);
    return it == energyPj.end() ? 0.0 : it->second;
}

double
RunResult::axcCachePj() const
{
    return component(energy::comp::kL0x) +
           component(energy::comp::kScratchpad) +
           component(energy::comp::kL1x);
}

double
RunResult::axcLinkPj() const
{
    return component(energy::comp::kLinkL0xL1xMsg) +
           component(energy::comp::kLinkL0xL1xData) +
           component(energy::comp::kLinkL0xL0x);
}

double
RunResult::totalPj() const
{
    double t = 0.0;
    for (const auto &[k, v] : energyPj)
        t += v;
    return t;
}

double
RunResult::hierarchyPj() const
{
    return totalPj() - component(energy::comp::kDram) -
           component(energy::comp::kLinkLlcDram);
}

std::string
RunResult::toJson(bool include_perf) const
{
    std::ostringstream os;
    os << "{\"workload\":\"" << jsonEscape(workload) << '"'
       << ",\"system\":\"" << systemKindName(kind) << '"';
    putUint(os, "totalCycles", totalCycles);
    putUint(os, "accelCycles", accelCycles);
    putUint(os, "dmaCycles", dmaCycles);
    putMap(os, "energyPj", energyPj);
    putMap(os, "funcCycles", funcCycles);
    os << ",\"invocationCycles\":[";
    for (std::size_t i = 0; i < invocationCycles.size(); ++i)
        os << (i ? "," : "") << invocationCycles[i];
    os << ']';
    putMap(os, "funcEnergyPj", funcEnergyPj);
    for (const auto &[key, field] : kCounters)
        putUint(os, key, this->*field);
    // AUTO-mode block: only present when the orchestrator ran, so
    // every static kind's JSON is byte-identical to pre-AUTO output.
    if (!modeInvocations.empty()) {
        putUint(os, "modeSwitches", modeSwitches);
        putMap(os, "modeInvocations", modeInvocations);
    }
    // Host wall-clock data is nondeterministic, so it only appears
    // when explicitly requested; default output stays byte-identical
    // to what it was before perf instrumentation existed.
    // Telemetry blocks only appear when the run enabled them, so the
    // default report is byte-identical to a telemetry-free build.
    if (metrics && !metrics->empty()) {
        os << ",\"metrics\":";
        obs::writeSeriesJson(os, *metrics);
    }
    if (!latency.empty()) {
        os << ",\"latency\":";
        obs::writeLatencyJson(os, latency);
    }
    if (include_perf && perf) {
        os << ",\"perf\":{\"hostSeconds\":";
        putDouble(os, perf->hostSeconds);
        os << ",\"events\":" << perf->events
           << ",\"eventsPerSecond\":";
        putDouble(os, perf->eventsPerSecond);
        os << '}';
    }
    // Only failed runs carry the error object, keeping healthy
    // output byte-identical to pre-hardening reports.
    if (error)
        os << ",\"error\":" << error->toJson();
    os << '}';
    return os.str();
}

namespace
{

/** Result-blob envelope magic ("Fusion RESult"). */
constexpr std::string_view kResultMagic = "FRES";

/** Decode bound on container sizes: a corrupted count must not
 *  allocate unbounded memory even if it slipped past the envelope
 *  hash (it cannot, but defense in depth is cheap). */
constexpr std::uint64_t kMaxResultElems = 1ull << 24;

void
putMapWire(wire::Writer &w, const std::map<std::string, double> &m)
{
    w.u64(m.size());
    for (const auto &[k, v] : m) {
        w.str(k);
        w.f64(v);
    }
}

void
putMapWire(wire::Writer &w,
           const std::map<std::string, std::uint64_t> &m)
{
    w.u64(m.size());
    for (const auto &[k, v] : m) {
        w.str(k);
        w.u64(v);
    }
}

bool
getMapWire(wire::Reader &r, std::map<std::string, double> &m)
{
    std::uint64_t n;
    if (!r.u64(n) || n > kMaxResultElems)
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string k;
        double v;
        if (!r.str(k) || !r.f64(v))
            return false;
        m.emplace(std::move(k), v);
    }
    return true;
}

bool
getMapWire(wire::Reader &r, std::map<std::string, std::uint64_t> &m)
{
    std::uint64_t n;
    if (!r.u64(n) || n > kMaxResultElems)
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string k;
        std::uint64_t v;
        if (!r.str(k) || !r.u64(v))
            return false;
        m.emplace(std::move(k), v);
    }
    return true;
}

} // namespace

std::string
serializeResult(const RunResult &r)
{
    wire::Writer w;
    w.str(r.workload);
    w.u64(static_cast<std::uint64_t>(r.kind));
    w.u64(r.totalCycles);
    w.u64(r.accelCycles);
    w.u64(r.dmaCycles);
    putMapWire(w, r.energyPj);
    putMapWire(w, r.funcCycles);
    w.u64(r.invocationCycles.size());
    for (std::uint64_t c : r.invocationCycles)
        w.u64(c);
    putMapWire(w, r.funcEnergyPj);
    for (const auto &[key, field] : kCounters)
        w.u64(r.*field);
    w.u64(r.modeSwitches);
    putMapWire(w, r.modeInvocations);
    // Wall-clock perf of the run that produced the entry. Stored so
    // a warm --json report (includePerf) stays byte-identical to the
    // cold report it was cached from; two *cold* runs differ here
    // anyway, so serving the recorded timing is the honest choice.
    w.boolean(r.perf.has_value());
    if (r.perf) {
        w.f64(r.perf->hostSeconds);
        w.u64(r.perf->events);
        w.f64(r.perf->eventsPerSecond);
    }
    return wire::wrapPayload(kResultMagic, kResultBlobVersion,
                             w.bytes());
}

bool
deserializeResult(std::string_view bytes, RunResult &out,
                  std::string *err)
{
    auto fail = [&](const char *why) {
        if (err)
            *err = why;
        return false;
    };
    std::string_view payload;
    if (!wire::unwrapPayload(kResultMagic, kResultBlobVersion, bytes,
                             payload, err))
        return false;
    wire::Reader r(payload);
    RunResult res;
    std::uint64_t kind;
    if (!r.str(res.workload) || !r.u64(kind))
        return fail("truncated result header");
    if (kind > static_cast<std::uint64_t>(SystemKind::Auto))
        return fail("result kind out of range");
    res.kind = static_cast<SystemKind>(kind);
    if (!r.u64(res.totalCycles) || !r.u64(res.accelCycles) ||
        !r.u64(res.dmaCycles))
        return fail("truncated result cycles");
    if (!getMapWire(r, res.energyPj) ||
        !getMapWire(r, res.funcCycles))
        return fail("truncated result maps");
    std::uint64_t nInv;
    if (!r.u64(nInv) || nInv > kMaxResultElems)
        return fail("bad invocation count");
    res.invocationCycles.reserve(static_cast<std::size_t>(nInv));
    for (std::uint64_t i = 0; i < nInv; ++i) {
        std::uint64_t c;
        if (!r.u64(c))
            return fail("truncated invocation cycles");
        res.invocationCycles.push_back(c);
    }
    if (!getMapWire(r, res.funcEnergyPj))
        return fail("truncated funcEnergyPj");
    for (const auto &[key, field] : kCounters) {
        if (!r.u64(res.*field))
            return fail("truncated result counters");
    }
    if (!r.u64(res.modeSwitches) ||
        !getMapWire(r, res.modeInvocations))
        return fail("truncated mode block");
    bool hasPerf;
    if (!r.boolean(hasPerf))
        return fail("truncated perf flag");
    if (hasPerf) {
        RunPerf p;
        if (!r.f64(p.hostSeconds) || !r.u64(p.events) ||
            !r.f64(p.eventsPerSecond))
            return fail("truncated perf block");
        res.perf = p;
    }
    if (!r.done())
        return fail("trailing bytes in result payload");
    out = std::move(res);
    return true;
}

} // namespace fusion::core
