#include "sweep/sweep.hh"

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "core/system.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sweep/result_cache.hh"
#include "trace/store.hh"

namespace fusion::sweep
{

namespace
{

/**
 * Thread-safe build-once cache of traced programs, keyed by
 * (workload, scale). A slot resolves lazily, one step at a time:
 *
 *  - opened: the verified envelope hash of the stored trace, when
 *    the replay seam (workloads::storedTrace) has one; the image
 *    is dropped again undecoded;
 *  - built:  the program, decoded from the stored trace (read
 *    afresh) or else generated and recorded — also when the image
 *    fails to decode;
 *  - hashed: the hash results of simulating the program are stored
 *    under (builtHash()).
 *
 * identity() needs only the opened step when a verified file
 * exists, so a fully warm sweep probes the result cache without
 * decoding or re-serializing a single trace, and holds at most one
 * file image at a time. Each step runs once: the first caller builds
 * it outside the lock while concurrent callers wait, and a step
 * whose build throws poisons only the jobs that need it.
 */
class ProgramCache
{
  public:
    /**
     * Trace identity of (workload, scale) for result-cache keys: the
     * verified envelope hash of its stored trace when there is one
     * (trace/store.hh: it equals trace::programHash() of the decoded
     * program), else programHash() of the built program.
     */
    std::uint64_t
    identity(const std::string &workload, workloads::Scale scale)
    {
        Slot &s = slot(workload, scale);
        open(s);
        return s.imageHash ? *s.imageHash : builtHash(s);
    }

    /** The program itself, decoded or generated on first use. */
    std::shared_ptr<const trace::Program>
    program(const std::string &workload, workloads::Scale scale)
    {
        Slot &s = slot(workload, scale);
        build(s);
        return s.prog;
    }

    /**
     * The trace hash a result of simulating program() is stored
     * under: the verified envelope hash of the image it decoded
     * from, else programHash() of the generated program. Equals
     * identity() unless the stored trace failed to decode (or was
     * replaced in between), so no result is ever stored under the
     * hash of bytes that were not simulated.
     */
    std::uint64_t
    builtHash(const std::string &workload, workloads::Scale scale)
    {
        return builtHash(slot(workload, scale));
    }

    /** Programs decoded or generated so far. */
    std::uint64_t built() const { return _built.load(); }

  private:
    enum class Step : std::uint8_t
    {
        Idle,
        Running,
        Done,
        Failed
    };

    struct Slot
    {
        std::string workload;
        workloads::Scale scale = workloads::Scale::Paper;
        std::mutex mu;
        std::condition_variable cv;
        /** Step states; guarded by mu. */
        Step opened = Step::Idle, built = Step::Idle,
             hashed = Step::Idle;
        // Written by a step's builder before it publishes Done and
        // read-only afterwards.
        std::optional<std::uint64_t> imageHash;
        std::shared_ptr<const trace::Program> prog;
        /** Envelope hash of the image prog decoded from, if any. */
        std::optional<std::uint64_t> decodedHash;
        std::uint64_t progHash = 0;
    };

    Slot &
    slot(const std::string &workload, workloads::Scale scale)
    {
        std::lock_guard<std::mutex> lk(_mu);
        std::unique_ptr<Slot> &s =
            _slots[{workload, static_cast<int>(scale)}];
        if (!s) {
            s = std::make_unique<Slot>();
            s->workload = workload;
            s->scale = scale;
        }
        return *s;
    }

    /**
     * Run @p build exactly once for @p step of @p s. Callers arriving
     * while it runs wait for it. A build that throws rethrows to its
     * own caller and poisons the step: every other caller gets a
     * SimError instead.
     */
    template <typename F>
    static void
    once(Slot &s, Step &step, F &&build)
    {
        std::unique_lock<std::mutex> lk(s.mu);
        if (step == Step::Idle) {
            step = Step::Running;
            lk.unlock();
            auto publish = [&](Step outcome) {
                {
                    std::lock_guard<std::mutex> g(s.mu);
                    step = outcome;
                }
                s.cv.notify_all();
            };
            try {
                build();
            } catch (...) {
                publish(Step::Failed);
                throw;
            }
            publish(Step::Done);
            return;
        }
        s.cv.wait(lk, [&] {
            return step == Step::Done || step == Step::Failed;
        });
        if (step == Step::Failed) {
            guard::SimError e;
            e.category = guard::ErrorCategory::Internal;
            e.component = "program-cache";
            e.message = "program build failed for workload '" +
                        s.workload + "'";
            throw guard::SimErrorException(std::move(e));
        }
    }

    void
    open(Slot &s)
    {
        once(s, s.opened, [&] {
            if (auto stored =
                    workloads::storedTrace(s.workload, s.scale))
                s.imageHash = stored->hash;
        });
    }

    void
    build(Slot &s)
    {
        once(s, s.built, [&] {
            std::optional<trace::Program> p;
            if (auto stored =
                    workloads::storedTrace(s.workload, s.scale)) {
                p = stored->decode();
                if (p)
                    s.decodedHash = stored->hash;
            }
            if (!p)
                p = workloads::generateProgram(s.workload, s.scale);
            fusion_assert(p, "sweep job validated but workload '",
                          s.workload, "' vanished");
            s.prog =
                std::make_shared<const trace::Program>(std::move(*p));
            ++_built;
        });
    }

    std::uint64_t
    builtHash(Slot &s)
    {
        build(s);
        once(s, s.hashed, [&] {
            s.progHash = s.decodedHash ? *s.decodedHash
                                       : trace::programHash(*s.prog);
        });
        return s.progHash;
    }

    std::mutex _mu;
    std::map<std::pair<std::string, int>, std::unique_ptr<Slot>>
        _slots;
    std::atomic<std::uint64_t> _built{0};
};

/** A failed result for @p j carrying @p e. */
core::RunResult
failedResult(const SweepJob &j, guard::SimError e)
{
    core::RunResult res;
    res.workload = j.workload;
    res.kind = j.cfg.kind;
    res.error = std::move(e);
    return res;
}

/** An Internal-category error raised by @p component. */
guard::SimError
internalError(const char *component, std::string message)
{
    guard::SimError e;
    e.category = guard::ErrorCategory::Internal;
    e.component = component;
    e.message = std::move(message);
    return e;
}

/** Reject bad jobs before any thread starts simulating. */
void
validateJobs(const std::vector<SweepJob> &jobs)
{
    std::ostringstream errs;
    bool bad = false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &j = jobs[i];
        auto label = [&]() -> std::string {
            return "job " + std::to_string(i) +
                   (j.tag.empty() ? "" : " (" + j.tag + ")");
        };
        if (!j.prog && !workloads::makeWorkload(j.workload)) {
            bad = true;
            errs << "\n  " << label() << ": unknown workload '"
                 << j.workload << "' (known:";
            for (const auto &n : workloads::workloadNames())
                errs << ' ' << n;
            errs << ')';
        }
        if (static_cast<bool>(j.transform) !=
            (j.transformId != 0)) {
            bad = true;
            errs << "\n  " << label()
                 << (j.transform
                         ? ": transform set but transformId is 0 "
                           "(would alias the untransformed trace "
                           "in the result cache)"
                         : ": transformId set without a transform");
        }
        for (const std::string &e : j.cfg.validate()) {
            bad = true;
            errs << "\n  " << label() << ": " << e;
        }
    }
    if (bad)
        fusion_fatal("invalid sweep job list:", errs.str());
}

} // namespace

std::size_t
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::vector<core::RunResult>
runSweep(const std::vector<SweepJob> &jobs, const SweepOptions &opt)
{
    validateJobs(jobs);

    std::vector<core::RunResult> results(jobs.size());
    if (opt.cacheStats)
        *opt.cacheStats = SweepCacheStats{};
    if (jobs.empty())
        return results;

    ProgramCache programs;
    std::atomic<std::size_t> next{0};
    std::mutex progressMu;
    std::size_t completed = 0;

    // Result-cache plumbing; all of it is inert when opt.cache is
    // null, keeping the engine byte-identical to its pre-cache form.
    SweepCacheStats cstats;
    std::mutex cacheMu; // counters, hash memo
    // Content hashes of attached SweepJob::prog programs, memoized
    // per instance (jobs sharing one program hash it once).
    std::map<const trace::Program *, std::uint64_t> progHashes;

    auto hashOf =
        [&](const std::shared_ptr<const trace::Program> &p) {
            std::lock_guard<std::mutex> lk(cacheMu);
            auto [it, inserted] = progHashes.try_emplace(p.get(), 0);
            if (inserted)
                it->second = trace::programHash(*p);
            return it->second;
        };
    // Trace identity of a job: its base program's hash @p h, folded
    // with the transform identity when one is attached. The
    // transformed program itself is never hashed — that is the point
    // of lazy transforms (a cache hit skips the copy entirely).
    auto traceHashOf = [](const SweepJob &j, std::uint64_t h) {
        if (j.transform) {
            unsigned char b[16];
            for (int k = 0; k < 8; ++k) {
                b[k] = static_cast<unsigned char>(h >> (8 * k));
                b[8 + k] = static_cast<unsigned char>(
                    j.transformId >> (8 * k));
            }
            h = fnv1a({reinterpret_cast<const char *>(b),
                       sizeof(b)});
        }
        return h;
    };
    // A job's base program: attached, or decoded/built on first use.
    auto baseOf = [&](const SweepJob &j) {
        return j.prog ? j.prog : programs.program(j.workload, j.scale);
    };

    // One isolated simulation. A SimError raised while it runs
    // becomes a failed result carrying the fired-fault record;
    // anything else propagates to contained().
    auto simulate = [](const SweepJob &j,
                       const trace::Program &prog) {
        // Each job gets its own System and therefore its own
        // SimContext/event queue: no state crosses jobs.
        core::System sys(j.cfg, prog);
        try {
            return sys.run();
        } catch (const guard::SimErrorException &ex) {
            core::RunResult res = failedResult(j, ex.error());
            res.faultsFired = sys.ctx().guard.faultsFired();
            res.faultFiredMask = sys.ctx().guard.firedFaultMask();
            return res;
        }
    };

    // simulate() plus the lazy transform copy.
    auto runJob = [&](const SweepJob &j,
                      const trace::Program &base) {
        if (!j.transform)
            return simulate(j, base);
        trace::Program copy(base);
        try {
            j.transform(copy);
        } catch (const std::exception &ex) {
            return failedResult(
                j, internalError("sweep-transform", ex.what()));
        }
        return simulate(j, copy);
    };

    // Every failure mode becomes a failed result, so a poisoned job
    // never takes down sibling jobs.
    auto contained = [](const SweepJob &j, auto &&fn) {
        try {
            return core::RunResult(fn());
        } catch (const guard::SimErrorException &ex) {
            return failedResult(j, ex.error());
        } catch (const std::exception &ex) {
            return failedResult(
                j, internalError("sweep-worker", ex.what()));
        }
    };

    // Simulate a job, or, when it is cacheable, serve it from the
    // cache or simulate it and store the result. Only a miss
    // materializes the job's program.
    auto runOne = [&](const SweepJob &j) {
        if (!opt.cache || !ResultCache::cacheable(j.cfg))
            return runJob(j, *baseOf(j));
        CacheKey key{j.cfg.canonicalHash(),
                     traceHashOf(j, j.prog ? hashOf(j.prog)
                                           : programs.identity(
                                                 j.workload, j.scale))};
        std::optional<core::RunResult> hit = opt.cache->lookup(key);
        if (!hit && !j.prog) {
            // The key names the identity of the stored trace. If that
            // image failed to decode, the program was regenerated and
            // its result belongs under the regenerated program's
            // hash, which a cached entry may already carry.
            const CacheKey built{
                key.configHash,
                traceHashOf(j, programs.builtHash(j.workload, j.scale))};
            if (built != key) {
                key = built;
                hit = opt.cache->lookup(key);
            }
        }
        {
            std::lock_guard<std::mutex> lk(cacheMu);
            ++(hit ? cstats.hits : cstats.misses);
        }
        if (hit)
            return std::move(*hit);
        core::RunResult res = runJob(j, *baseOf(j));
        // Failed results are rejected by store().
        opt.cache->store(key, res);
        return res;
    };

    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            const SweepJob &j = jobs[i];
            results[i] = contained(j, [&] { return runOne(j); });
            {
                std::lock_guard<std::mutex> lk(progressMu);
                ++completed;
                if (opt.progress)
                    opt.progress(SweepProgress{completed,
                                               jobs.size(), i, &j});
            }
        }
    };

    std::size_t workers =
        std::max<std::size_t>(1, std::min(opt.jobs, jobs.size()));
    if (workers == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    cstats.programsBuilt = programs.built();
    if (opt.cacheStats)
        *opt.cacheStats = cstats;
    return results;
}

std::string
reportJson(const std::string &sweepName,
           const std::vector<SweepJob> &jobs,
           const std::vector<core::RunResult> &results,
           bool includePerf, const SweepCacheStats *cacheStats)
{
    fusion_assert(jobs.size() == results.size(),
                  "report jobs/results size mismatch: ",
                  jobs.size(), " vs ", results.size());
    auto escape = [](const std::string &s) {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    };
    auto scaleName = [](workloads::Scale s) {
        switch (s) {
          case workloads::Scale::Small:
            return "small";
          case workloads::Scale::Paper:
            return "paper";
          case workloads::Scale::Large:
            return "large";
        }
        return "?";
    };

    std::ostringstream os;
    os << "{\"sweep\":\"" << escape(sweepName) << "\",\"jobs\":[";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &j = jobs[i];
        const core::SystemConfig &c = j.cfg;
        os << (i ? ",\n" : "\n") << "{\"index\":" << i
           << ",\"tag\":\"" << escape(j.tag) << '"'
           << ",\"workload\":\"" << escape(j.workload) << '"'
           << ",\"scale\":\"" << scaleName(j.scale) << '"'
           << ",\"config\":{"
           << "\"system\":\"" << core::systemKindName(c.kind) << '"'
           << ",\"scratchpadBytes\":" << c.scratchpadBytes
           << ",\"l0xBytes\":" << c.l0xBytes
           << ",\"l0xAssoc\":" << c.l0xAssoc
           << ",\"l1xBytes\":" << c.l1xBytes
           << ",\"l1xAssoc\":" << c.l1xAssoc
           << ",\"l1xBanks\":" << c.l1xBanks
           << ",\"l0xWriteThrough\":"
           << (c.l0xWriteThrough ? "true" : "false")
           << ",\"overlapInvocations\":"
           << (c.overlapInvocations ? "true" : "false")
           << ",\"numTiles\":" << c.numTiles
           << ",\"dmaMaxOutstanding\":" << c.dmaMaxOutstanding
           << "},\"result\":" << results[i].toJson(includePerf)
           << '}';
    }
    os << "\n]";
    // Only emitted when some job failed, so healthy reports stay
    // byte-identical to pre-hardening output.
    std::size_t failed = 0;
    for (const auto &r : results)
        if (r.failed())
            ++failed;
    if (failed != 0)
        os << ",\"failed\":" << failed;
    // Sweep-level gauge aggregate (min/mean/max per gauge across
    // every sampled job). Only present when some job carried interval
    // metrics, so default reports stay byte-identical.
    {
        std::map<std::string, obs::GaugeSummary> summary;
        for (const auto &r : results)
            if (r.metrics)
                obs::accumulate(summary, *r.metrics);
        if (!summary.empty()) {
            os << ",\"metricsSummary\":";
            obs::writeSummaryJson(os, summary);
        }
    }
    // Sweep-level aggregate of the per-run wall-clock data; only on
    // request, for the same determinism reasons as RunResult::perf.
    if (includePerf) {
        double host_seconds = 0.0;
        std::uint64_t events = 0;
        for (const auto &r : results) {
            if (r.perf) {
                host_seconds += r.perf->hostSeconds;
                events += r.perf->events;
            }
        }
        os << ",\"perf\":{\"hostSeconds\":" << host_seconds
           << ",\"events\":" << events << ",\"eventsPerSecond\":"
           << (host_seconds > 0.0
                   ? static_cast<double>(events) / host_seconds
                   : 0.0)
           << '}';
    }
    // Result-cache counters: only on request, and never inside the
    // per-job entries, so the results array is byte-identical
    // whether a point was simulated or replayed from cache.
    if (cacheStats) {
        os << ",\"cache\":{\"hits\":" << cacheStats->hits
           << ",\"misses\":" << cacheStats->misses << '}';
    }
    os << "}\n";
    return os.str();
}

void
writeReport(std::ostream &os, const std::string &sweepName,
            const std::vector<SweepJob> &jobs,
            const std::vector<core::RunResult> &results,
            bool includePerf, const SweepCacheStats *cacheStats)
{
    os << reportJson(sweepName, jobs, results, includePerf,
                     cacheStats);
}

void
writeReportFile(const std::string &path,
                const std::string &sweepName,
                const std::vector<SweepJob> &jobs,
                const std::vector<core::RunResult> &results,
                bool includePerf, const SweepCacheStats *cacheStats)
{
    std::ofstream out(path);
    if (!out)
        fusion_fatal("cannot open sweep report file ", path);
    writeReport(out, sweepName, jobs, results, includePerf,
                cacheStats);
}

} // namespace fusion::sweep
