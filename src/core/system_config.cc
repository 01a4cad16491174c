#include "core/system_config.hh"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <sstream>
#include <type_traits>

namespace fusion::core
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

const char *
systemKindShortName(SystemKind k)
{
    switch (k) {
      case SystemKind::Scratch:
        return "SC";
      case SystemKind::Shared:
        return "SH";
      case SystemKind::Fusion:
        return "FU";
      case SystemKind::FusionDx:
        return "FU-Dx";
      case SystemKind::FusionMesi:
        return "FU-M";
      case SystemKind::Auto:
        return "AU";
    }
    return "?";
}

const char *
systemKindName(SystemKind k)
{
    switch (k) {
      case SystemKind::Scratch:
        return "SCRATCH";
      case SystemKind::Shared:
        return "SHARED";
      case SystemKind::Fusion:
        return "FUSION";
      case SystemKind::FusionDx:
        return "FUSION-Dx";
      case SystemKind::FusionMesi:
        return "FUSION-MESI";
      case SystemKind::Auto:
        return "AUTO";
    }
    return "?";
}

const char *
systemKindCliName(SystemKind k)
{
    switch (k) {
      case SystemKind::Scratch:
        return "scratch";
      case SystemKind::Shared:
        return "shared";
      case SystemKind::Fusion:
        return "fusion";
      case SystemKind::FusionDx:
        return "fusion-dx";
      case SystemKind::FusionMesi:
        return "fusion-mesi";
      case SystemKind::Auto:
        return "auto";
    }
    return "?";
}

std::optional<SystemKind>
parseSystemKind(std::string_view name)
{
    std::string s(name);
    std::transform(s.begin(), s.end(), s.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    constexpr SystemKind kAll[] = {
        SystemKind::Scratch,  SystemKind::Shared,
        SystemKind::Fusion,   SystemKind::FusionDx,
        SystemKind::FusionMesi, SystemKind::Auto};
    auto lower = [](const char *cs) {
        std::string out(cs);
        std::transform(out.begin(), out.end(), out.begin(),
                       [](char c) {
                           return static_cast<char>(std::tolower(
                               static_cast<unsigned char>(c)));
                       });
        return out;
    };
    for (SystemKind k : kAll) {
        if (s == systemKindCliName(k) ||
            s == lower(systemKindShortName(k)) ||
            s == lower(systemKindName(k)))
            return k;
    }
    return std::nullopt;
}

std::vector<std::string>
SystemConfig::validate() const
{
    std::vector<std::string> errs;
    auto err = [&errs](auto &&...parts) {
        std::ostringstream os;
        (os << ... << parts);
        errs.push_back(os.str());
    };

    // A cache must be a power-of-two number of whole lines so set
    // indexing works, and split into whole sets, at least one.
    auto checkCache = [&](const char *name, std::uint64_t bytes,
                          std::uint32_t assoc, std::uint32_t banks) {
        if (!isPow2(bytes))
            err(name, " capacity must be a power of two, got ",
                bytes, " bytes");
        if (assoc == 0)
            err(name, " associativity must be nonzero");
        if (banks == 0)
            err(name, " bank count must be nonzero");
        if (banks != 0 && !isPow2(banks))
            err(name, " bank count must be a power of two, got ",
                banks);
        const std::uint64_t set_bytes =
            static_cast<std::uint64_t>(assoc) * kLineBytes;
        if (assoc != 0 && bytes < set_bytes)
            err(name, " capacity ", bytes, " B cannot hold one ",
                assoc, "-way set of ", kLineBytes, " B lines");
        else if (assoc != 0 && isPow2(bytes) && bytes % set_bytes != 0)
            err(name, " capacity ", bytes, " B does not split into ",
                "whole ", assoc, "-way sets of ", kLineBytes,
                " B lines");
    };
    checkCache("L0X", l0xBytes, l0xAssoc, 1);
    checkCache("L1X", l1xBytes, l1xAssoc, l1xBanks);

    if (!isPow2(scratchpadBytes))
        err("scratchpad capacity must be a power of two, got ",
            scratchpadBytes, " bytes");
    if (scratchpadBytes < kLineBytes)
        err("scratchpad capacity ", scratchpadBytes,
            " B is smaller than one ", kLineBytes, " B line");

    if (numTiles == 0)
        err("numTiles must be nonzero");
    if (dmaMaxOutstanding == 0)
        err("dmaMaxOutstanding must be nonzero");

    if (kind == SystemKind::Auto && overlapInvocations)
        err("AUTO mode runs invocations serially; "
            "overlapInvocations is not supported");

    return errs;
}

namespace
{

/** Field-order FNV-1a mixer for canonicalHash(). */
class ConfigHasher
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (8 * i)) & 0xff;
            _h *= 0x100000001b3ull;
        }
    }

    void
    mix(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    void mix(bool v) { mix(std::uint64_t{v ? 1u : 0u}); }

    template <typename E>
    std::enable_if_t<std::is_enum_v<E>>
    mix(E v)
    {
        mix(static_cast<std::uint64_t>(v));
    }

    std::uint64_t digest() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ull;
};

} // namespace

std::uint64_t
SystemConfig::canonicalHash() const
{
    // Fixed field order; append-only. Any semantic change here must
    // bump kConfigHashVersion (the very first value mixed) so old
    // result-cache entries miss instead of aliasing.
    ConfigHasher h;
    h.mix(std::uint64_t{kConfigHashVersion});
    h.mix(kind);
    h.mix(scratchpadBytes);
    h.mix(l0xBytes);
    h.mix(std::uint64_t{l0xAssoc});
    h.mix(l0xRepl);
    h.mix(l1xBytes);
    h.mix(std::uint64_t{l1xAssoc});
    h.mix(std::uint64_t{l1xBanks});
    h.mix(l0xWriteThrough);
    h.mix(overlapInvocations);
    h.mix(std::uint64_t{numTiles});
    h.mix(std::uint64_t{dmaMaxOutstanding});
    // Hardening: watchdog budgets never change healthy output, but a
    // tripped budget or an armed fault does — and a guarded run must
    // never be served from an unguarded run's cache entry (or vice
    // versa), so every guard knob participates.
    h.mix(std::uint64_t{guard.maxCycles});
    h.mix(guard.maxWallMs);
    h.mix(std::uint64_t{guard.noProgressTicks});
    h.mix(std::uint64_t{guard.invariantPeriod});
    h.mix(guard.invariantsAtEnd);
    h.mix(guard.schedule.seed);
    h.mix(std::uint64_t{guard.schedule.faults.size()});
    for (const guard::ArmedFault &f : guard.schedule.faults) {
        h.mix(f.kind);
        h.mix(f.triggerAfter);
        h.mix(std::uint64_t{f.delay});
        h.mix(f.probability);
    }
    // Telemetry knobs change the serialized RunResult (metrics,
    // latency, spans), so they are part of the identity too.
    h.mix(obs.trace);
    h.mix(std::uint64_t{obs.traceKindMask});
    h.mix(std::uint64_t{obs.traceLimit});
    h.mix(std::uint64_t{obs.metricsInterval});
    return h.digest();
}

SystemConfig
SystemConfig::preset(Preset preset, SystemKind kind)
{
    SystemConfig c;
    c.kind = kind;
    switch (preset) {
      case Preset::Paper:
        break;
      case Preset::AxcLarge:
        c.scratchpadBytes = 8 * 1024;
        c.l0xBytes = 8 * 1024;
        c.l1xBytes = 256 * 1024;
        break;
    }
    return c;
}

const char *
presetName(SystemConfig::Preset p)
{
    switch (p) {
      case SystemConfig::Preset::Paper:
        return "paper";
      case SystemConfig::Preset::AxcLarge:
        return "axc-large";
    }
    return "?";
}

} // namespace fusion::core
