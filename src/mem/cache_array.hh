/**
 * @file
 * Generic set-associative cache tag/state array.
 *
 * One CacheArray implementation backs every tagged structure in the
 * simulator: the host L1, the NUCA LLC banks, the accelerator-tile
 * shared L1X and the per-accelerator L0X caches. Lines carry the
 * superset of metadata the different controllers need (MESI state,
 * dirty bit, PID tag, and the ACC protocol's LTIME / GTIME / write
 * epoch timestamps); each controller uses only its slice.
 *
 * The array is purely a timing/state model: no data payloads are
 * stored (the workload kernels compute functionally at trace-capture
 * time).
 */

#ifndef FUSION_MEM_CACHE_ARRAY_HH
#define FUSION_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace fusion::mem
{

/** MESI stable states (the tile L1X only uses M/E/I, Section 3.2). */
enum class MesiState : std::uint8_t
{
    I,
    S,
    E,
    M
};

/** Human-readable MESI state name. */
const char *mesiName(MesiState s);

/** One cache line's metadata. */
struct CacheLine
{
    bool valid = false;
    Addr lineAddr = 0; ///< line-aligned address (VA or PA per cache)
    Addr pline = 0;    ///< physical line (tile caches: VA-indexed,
                       ///< PA kept for writebacks + AX-RMAP upkeep)
    Pid pid = 0;       ///< process tag (accelerator-tile caches)
    MesiState mesi = MesiState::I;
    bool dirty = false;

    /// ACC lease timestamps (Section 3.2). In an L0X, ltime is the
    /// read-lease end; in the L1X, gtime is the latest lease granted
    /// to any L0X for this line.
    Tick ltime = 0;
    Tick gtime = 0;
    /// End of the current write epoch (0 = none).
    Tick wepochEnd = 0;
    /// Write-epoch lock at the L1X: set while a write lease is
    /// outstanding; readers/writers queue behind it.
    bool locked = false;

    std::uint64_t lastUse = 0;    ///< LRU timestamp
    std::uint64_t installSeq = 0; ///< FIFO install order
};

/** Replacement policies (gem5-style selection). */
enum class ReplPolicy : std::uint8_t
{
    Lru,   ///< true least-recently-used
    Fifo,  ///< oldest install wins
    Random ///< deterministic pseudo-random way
};

/** Geometry of a cache array. */
struct CacheGeometry
{
    std::uint64_t capacityBytes = 4096;
    std::uint32_t assoc = 4;
    std::uint32_t lineBytes = kLineBytes;
    ReplPolicy repl = ReplPolicy::Lru;

    std::uint32_t
    numSets() const
    {
        return static_cast<std::uint32_t>(
            capacityBytes / (static_cast<std::uint64_t>(assoc) *
                             lineBytes));
    }
};

/**
 * Set-associative tag array with true-LRU replacement.
 *
 * Victim selection accepts a predicate so protocol controllers can
 * exclude lines that are not currently evictable (e.g. L1X lines
 * with an unexpired lease).
 */
class CacheArray
{
  public:
    explicit CacheArray(const CacheGeometry &geom);

    /** Geometry accessor. */
    const CacheGeometry &geometry() const { return _geom; }
    std::uint32_t numSets() const { return _numSets; }
    std::uint32_t assoc() const { return _geom.assoc; }

    /** Set index for a line address. */
    std::uint32_t
    setIndex(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(lineNumber(line_addr) %
                                          _numSets);
    }

    /**
     * Find a valid line matching (line address, pid).
     * @return pointer into the array or nullptr on miss.
     */
    CacheLine *find(Addr line_addr, Pid pid = 0);
    const CacheLine *find(Addr line_addr, Pid pid = 0) const;

    /**
     * Touch a line for LRU purposes.
     */
    void
    touch(CacheLine &line)
    {
        line.lastUse = ++_useClock;
    }

    /**
     * Pick a victim way in the set of @p line_addr.
     *
     * Preference order: invalid way, then LRU among ways for which
     * @p evictable returns true.
     *
     * @return pointer to the victim way, or nullptr if every way is
     *         valid and non-evictable (caller must retry later).
     */
    CacheLine *victim(Addr line_addr,
                      const std::function<bool(const CacheLine &)>
                          &evictable = {});

    /**
     * Install a (line address, pid) into the given way, resetting
     * metadata to a just-filled state.
     */
    void install(CacheLine &way, Addr line_addr, Pid pid = 0);

    /** Invalidate one line. */
    void invalidate(CacheLine &line);

    /** Invalidate everything. */
    void invalidateAll();

    /** Iterate all valid lines. */
    void forEachValid(const std::function<void(CacheLine &)> &fn);
    void forEachValid(
        const std::function<void(const CacheLine &)> &fn) const;

    /**
     * Iterate valid lines of one set. The callable is a template
     * parameter, not a std::function: the L0X self-downgrade sweep
     * calls this per expired set, and a std::function would
     * heap-allocate its capture on every call.
     */
    template <typename Fn>
    void
    forEachValidInSet(std::uint32_t set, Fn &&fn)
    {
        fusion_assert(set < _numSets, "set out of range");
        CacheLine *base = setBase(set);
        for (std::uint32_t w = 0; w < _geom.assoc; ++w) {
            if (base[w].valid)
                fn(base[w]);
        }
    }

    /** Number of currently valid lines. */
    std::uint64_t validCount() const;

  private:
    CacheGeometry _geom;
    std::uint32_t _numSets;
    std::vector<CacheLine> _lines; ///< numSets * assoc, set-major
    std::uint64_t _useClock = 0;

    CacheLine *setBase(std::uint32_t set)
    {
        return &_lines[static_cast<std::size_t>(set) * _geom.assoc];
    }
    const CacheLine *setBase(std::uint32_t set) const
    {
        return &_lines[static_cast<std::size_t>(set) * _geom.assoc];
    }
};

} // namespace fusion::mem

#endif // FUSION_MEM_CACHE_ARRAY_HH
