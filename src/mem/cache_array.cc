#include "mem/cache_array.hh"

namespace fusion::mem
{

const char *
mesiName(MesiState s)
{
    switch (s) {
      case MesiState::I:
        return "I";
      case MesiState::S:
        return "S";
      case MesiState::E:
        return "E";
      case MesiState::M:
        return "M";
    }
    return "?";
}

CacheArray::CacheArray(const CacheGeometry &geom)
    : _geom(geom), _numSets(geom.numSets())
{
    fusion_assert(_numSets > 0, "cache has zero sets: capacity=",
                  geom.capacityBytes, " assoc=", geom.assoc);
    fusion_assert(geom.capacityBytes % (static_cast<std::uint64_t>(
                      geom.assoc) * geom.lineBytes) == 0,
                  "capacity not divisible by way size");
    _lines.resize(static_cast<std::size_t>(_numSets) * geom.assoc);
}

CacheLine *
CacheArray::find(Addr line_addr, Pid pid)
{
    line_addr = lineAlign(line_addr);
    CacheLine *base = setBase(setIndex(line_addr));
    for (std::uint32_t w = 0; w < _geom.assoc; ++w) {
        CacheLine &l = base[w];
        if (l.valid && l.lineAddr == line_addr && l.pid == pid)
            return &l;
    }
    return nullptr;
}

const CacheLine *
CacheArray::find(Addr line_addr, Pid pid) const
{
    return const_cast<CacheArray *>(this)->find(line_addr, pid);
}

CacheLine *
CacheArray::victim(Addr line_addr,
                   const std::function<bool(const CacheLine &)>
                       &evictable)
{
    // Selection runs inline over the set — no candidate list, this
    // sits on every miss fill.
    CacheLine *base = setBase(setIndex(lineAlign(line_addr)));
    CacheLine *best = nullptr;
    std::size_t candidates = 0;
    for (std::uint32_t w = 0; w < _geom.assoc; ++w) {
        CacheLine &l = base[w];
        if (!l.valid)
            return &l;
        if (evictable && !evictable(l))
            continue;
        ++candidates;
        if (!best) {
            best = &l;
            continue;
        }
        switch (_geom.repl) {
          case ReplPolicy::Lru:
            if (l.lastUse < best->lastUse)
                best = &l;
            break;
          case ReplPolicy::Fifo:
            if (l.installSeq < best->installSeq)
                best = &l;
            break;
          case ReplPolicy::Random:
            break; // picked by index below
        }
    }
    if (!best)
        return nullptr;
    if (_geom.repl == ReplPolicy::Random) {
        // Deterministic pseudo-random pick (SplitMix-style hash of
        // the replacement clock and line address).
        std::uint64_t h = (_useClock + 1) * 0x9e3779b97f4a7c15ull ^
                          lineNumber(line_addr);
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        std::size_t pick = h % candidates;
        for (std::uint32_t w = 0; w < _geom.assoc; ++w) {
            CacheLine &l = base[w];
            if (!l.valid || (evictable && !evictable(l)))
                continue;
            if (pick-- == 0)
                return &l;
        }
    }
    return best;
}

void
CacheArray::install(CacheLine &way, Addr line_addr, Pid pid)
{
    way.valid = true;
    way.lineAddr = lineAlign(line_addr);
    way.pline = 0;
    way.pid = pid;
    way.mesi = MesiState::I;
    way.dirty = false;
    way.ltime = 0;
    way.gtime = 0;
    way.wepochEnd = 0;
    way.locked = false;
    way.installSeq = ++_useClock;
    touch(way);
}

void
CacheArray::invalidate(CacheLine &line)
{
    line.valid = false;
    line.mesi = MesiState::I;
    line.dirty = false;
    line.locked = false;
    line.ltime = 0;
    line.gtime = 0;
    line.wepochEnd = 0;
}

void
CacheArray::invalidateAll()
{
    for (auto &l : _lines)
        invalidate(l);
}

void
CacheArray::forEachValid(const std::function<void(CacheLine &)> &fn)
{
    for (auto &l : _lines) {
        if (l.valid)
            fn(l);
    }
}

void
CacheArray::forEachValid(
    const std::function<void(const CacheLine &)> &fn) const
{
    for (const auto &l : _lines) {
        if (l.valid)
            fn(l);
    }
}

std::uint64_t
CacheArray::validCount() const
{
    std::uint64_t n = 0;
    for (const auto &l : _lines)
        n += l.valid ? 1 : 0;
    return n;
}

} // namespace fusion::mem
