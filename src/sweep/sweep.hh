/**
 * @file
 * Parallel experiment sweep engine.
 *
 * Every figure/table of the paper's evaluation is a sweep: a list
 * of independent (SystemConfig x workload) simulations whose
 * results are rendered into one table. Each simulation is a
 * deterministic, isolated event-queue run (its own SimContext), so
 * sweeps parallelize perfectly across worker threads.
 *
 * The engine takes a job list, runs it on a fixed-size thread pool,
 * and returns results ordered by submission index — regardless of
 * completion order, the result vector is identical to a serial run.
 * Programs are built on demand and shared: jobs naming the same
 * (workload, scale) pair reuse one trace capture, and a job served
 * from the result cache never decodes or generates its program at
 * all (DESIGN.md §10).
 */

#ifndef FUSION_SWEEP_SWEEP_HH
#define FUSION_SWEEP_SWEEP_HH

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/results.hh"
#include "core/system_config.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace fusion::sweep
{

class ResultCache;

/** One independent simulation of a sweep. */
struct SweepJob
{
    /** System to simulate; validated before any job runs. */
    core::SystemConfig cfg;
    /** Workload name ("fft", ...); ignored when @ref prog is set. */
    std::string workload;
    workloads::Scale scale = workloads::Scale::Paper;
    /** Harness-meaningful label carried into progress callbacks and
     *  the JSON report ("fft/FU-Dx", "lt=4.0", ...). */
    std::string tag;
    /**
     * Optional pre-built (possibly modified) program. When unset
     * the engine builds @ref workload at @ref scale on demand,
     * caching one build per (workload, scale) across the whole
     * sweep — and skips the build entirely for a job the result
     * cache serves from a stored trace's identity.
     */
    std::shared_ptr<const trace::Program> prog;
    /**
     * Optional program transform, applied to a private copy of the
     * base program immediately before simulation. Harnesses that
     * sweep a trace-side knob (lease scaling, op thinning, ...)
     * should name the base workload and express the per-point
     * mutation here instead of materializing N mutated copies up
     * front: the copy is made lazily inside the worker, so jobs
     * served from the result cache never pay the base build, the
     * deep copy or its content hash.
     */
    std::function<void(trace::Program &)> transform;
    /**
     * Content identity of @ref transform, mixed into the job's
     * trace hash for result-cache keying. Must be nonzero when
     * transform is set and zero otherwise (validated before the
     * sweep runs). Two jobs may share a transformId only if their
     * transforms produce identical programs from identical inputs —
     * hash the transform's parameters (fusion::fnv1a over a
     * descriptive string is fine), not just its kind.
     */
    std::uint64_t transformId = 0;
};

/** Snapshot passed to the progress callback after each completion. */
struct SweepProgress
{
    std::size_t completed = 0; ///< jobs finished so far
    std::size_t total = 0;     ///< jobs submitted
    std::size_t index = 0;     ///< submission index of the finisher
    const SweepJob *job = nullptr;
};

/** Called after every job completes; serialized by the engine. */
using ProgressFn = std::function<void(const SweepProgress &)>;

/**
 * How the result cache fared over one sweep. Hit + miss counts cover
 * only *cacheable* jobs (ResultCache::cacheable).
 */
struct SweepCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /**
     * Programs the sweep decoded or generated for jobs that name a
     * workload (attached SweepJob::prog programs are not counted).
     * Zero for a fully warm sweep over a populated trace store: hits
     * are keyed by the stored traces' verified envelope hashes, and
     * only a job that simulates materializes its program. Not part
     * of reportJson(), so reports stay byte-identical.
     */
    std::uint64_t programsBuilt = 0;
};

struct SweepOptions
{
    /** Worker threads; clamped to [1, jobs.size()]. 1 = in-caller
     *  serial execution. */
    std::size_t jobs = 1;
    ProgressFn progress;
    /**
     * Content-addressed result cache (result_cache.hh). When set,
     * every cacheable job is looked up by (config hash, trace hash)
     * before it runs, and completed results are stored.
     * nullptr (default) = caching off, byte-identical to the
     * pre-cache engine.
     */
    ResultCache *cache = nullptr;
    /** When non-null, filled with this sweep's cache counters. */
    SweepCacheStats *cacheStats = nullptr;
};

/** Hardware concurrency, clamped to at least 1. */
std::size_t defaultJobs();

/**
 * Run every job and return results by submission index.
 *
 * Fails fast (fusion_fatal) before any simulation starts if a job
 * names an unknown workload or its SystemConfig::validate() reports
 * errors. Results do not depend on the worker count: job i's result
 * is always at index i and each simulation runs in its own
 * SimContext.
 */
std::vector<core::RunResult>
runSweep(const std::vector<SweepJob> &jobs,
         const SweepOptions &opt = {});

/**
 * Serialize a completed sweep as a JSON document: one entry per
 * job, in submission order, pairing the job's tag/config with its
 * full RunResult (RunResult::toJson()).
 *
 * @param includePerf forward wall-clock "perf" objects into each
 *        result and append a sweep-level aggregate. Off by default:
 *        host timing varies run to run, and the determinism tests
 *        compare reports byte for byte.
 * @param cacheStats when non-null, append a top-level "cache"
 *        object with the sweep's hit/miss counters. Kept out
 *        of the default report (and out of the per-job entries) so
 *        the results array is byte-identical whether a job was
 *        simulated or served from cache.
 */
std::string reportJson(const std::string &sweepName,
                       const std::vector<SweepJob> &jobs,
                       const std::vector<core::RunResult> &results,
                       bool includePerf = false,
                       const SweepCacheStats *cacheStats = nullptr);

/** reportJson() to a stream. */
void writeReport(std::ostream &os, const std::string &sweepName,
                 const std::vector<SweepJob> &jobs,
                 const std::vector<core::RunResult> &results,
                 bool includePerf = false,
                 const SweepCacheStats *cacheStats = nullptr);

/** reportJson() to a file; fusion_fatal if it cannot be opened. */
void writeReportFile(const std::string &path,
                     const std::string &sweepName,
                     const std::vector<SweepJob> &jobs,
                     const std::vector<core::RunResult> &results,
                     bool includePerf = false,
                     const SweepCacheStats *cacheStats = nullptr);

} // namespace fusion::sweep

#endif // FUSION_SWEEP_SWEEP_HH
