/**
 * @file
 * Content-addressed on-disk cache of completed RunResults.
 *
 * A sweep job is a pure function: (SystemConfig, traced program) ->
 * RunResult, bit-for-bit deterministic (the property anchored by the
 * SweepDeterminism tests). That makes completed results cacheable by
 * *content identity* alone:
 *
 *   key = (SystemConfig::canonicalHash(), trace::programHash(prog))
 *
 * salted on disk by the result-blob format version. Identical
 * invocations of any harness — re-running a figure after an
 * unrelated edit, CI re-runs, parameter sweeps sharing points —
 * skip simulation entirely and replay the stored result, which
 * regenerates byte-identical JSON (doubles are stored bit-exactly).
 *
 * Layout: one file per entry,
 *   <dir>/v<kResultBlobVersion>/<config-hash>-<trace-hash>.res
 * each a self-validating "FRES" envelope (sim/wire.hh). Writes are
 * atomic (tmp + rename) so concurrent processes sharing a cache
 * directory never observe torn entries. Reads are corruption
 * tolerant: a truncated, bit-flipped or wrong-version file is a
 * cache miss (and is deleted), never a crash — the same contract as
 * the trace store (docs/HARDENING.md).
 *
 * The cache is bounded: when the directory exceeds maxBytes the
 * least-recently-used entries (by file mtime; hits re-touch their
 * entry) are evicted until it fits.
 *
 * What is cacheable (ResultCache::cacheable): runs with no telemetry
 * armed and no fault injection armed. Telemetry payloads (span
 * rings, interval series) are deliberately not serialized, and
 * fault-injected runs are intentionally perturbed. Watchdog budgets
 * are fine — a healthy guarded run is deterministic, and failed runs
 * are never stored. Every guard/obs knob still participates in
 * canonicalHash(), so differently-instrumented runs can never alias
 * a cached entry in the first place.
 */

#ifndef FUSION_SWEEP_RESULT_CACHE_HH
#define FUSION_SWEEP_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "core/results.hh"
#include "core/system_config.hh"

namespace fusion::sweep
{

/** Content identity of one sweep job. */
struct CacheKey
{
    /** SystemConfig::canonicalHash() of the job's config. */
    std::uint64_t configHash = 0;
    /** trace::programHash() of the job's (possibly mutated) program. */
    std::uint64_t traceHash = 0;

    friend bool
    operator==(const CacheKey &a, const CacheKey &b)
    {
        return a.configHash == b.configHash &&
               a.traceHash == b.traceHash;
    }
};

/** Thread-safe content-addressed result store rooted at one dir. */
class ResultCache
{
  public:
    /** Lifetime counters (process-local, monotonic). */
    struct Stats
    {
        std::uint64_t hits = 0;      ///< lookups served from disk
        std::uint64_t misses = 0;    ///< lookups that found nothing
        std::uint64_t stores = 0;    ///< entries written
        std::uint64_t evictions = 0; ///< entries removed by the cap
        std::uint64_t corrupt = 0;   ///< bad entries found (=> miss)
    };

    /**
     * Open (and lazily create) a cache rooted at @p dir.
     * @param maxBytes size cap for eviction; 0 means "use
     *        FUSION_CACHE_MAX_BYTES from the environment, default
     *        256 MiB".
     */
    explicit ResultCache(std::string dir, std::uint64_t maxBytes = 0);

    /**
     * True when a job with this config may be served from / stored
     * into the cache: no telemetry armed (span/metrics payloads are
     * not serialized) and no fault injection armed (perturbed runs
     * must actually run). See the file comment for the rationale.
     */
    static bool
    cacheable(const core::SystemConfig &cfg)
    {
        return !cfg.obs.anyEnabled() && !cfg.guard.faultArmed();
    }

    /**
     * Probe the cache. A hit re-touches the entry's mtime (LRU) and
     * returns the decoded result; anything else — absent, truncated,
     * corrupted, or wrong format version — is a miss (corrupt
     * entries are also deleted so the slot can be rewritten).
     */
    std::optional<core::RunResult> lookup(const CacheKey &key);

    /**
     * Store a completed result under @p key (atomic tmp + rename),
     * then evict least-recently-used entries while the cache
     * exceeds its size cap. Failed results are never stored: a run
     * that tripped a watchdog must re-run, not re-fail from cache.
     * I/O errors warn once and degrade to "cache disabled for this
     * entry" — they never fail the sweep.
     */
    void store(const CacheKey &key, const core::RunResult &result);

    /** Entry path for @p key (exists only after a store). */
    std::string path(const CacheKey &key) const;

    const std::string &dir() const { return _dir; }
    std::uint64_t maxBytes() const { return _maxBytes; }
    Stats stats() const;

  private:
    void evictLocked();

    std::string _dir;         ///< root; entries live in v<N>/ below
    std::string _versionDir;  ///< <dir>/v<kResultBlobVersion>
    std::uint64_t _maxBytes;
    mutable std::mutex _mu;   ///< serializes fs ops + stats
    Stats _stats;
    bool _warned = false;     ///< one warn() per cache on I/O errors
    std::uint64_t _tmpSeq = 0;
};

} // namespace fusion::sweep

#endif // FUSION_SWEEP_RESULT_CACHE_HH
