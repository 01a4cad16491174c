/**
 * @file
 * Shared helpers for the paper-reproduction bench harnesses.
 *
 * Every harness regenerates one table or figure of the paper's
 * evaluation by building a sweep-job list and submitting it to the
 * parallel sweep engine, then rendering the ordered results. All
 * harnesses share one CLI:
 *
 *   --small       fast CI-size inputs (default: paper scale)
 *   --jobs N      sweep worker threads (default: hardware threads)
 *   --json FILE   also write the machine-readable SweepReport
 *   --guard       enable the hardening layer (watchdog + periodic
 *                 invariant checkers; docs/HARDENING.md)
 *   --trace-dir / --cache-dir / --no-cache
 *                 trace record/replay + content-addressed result
 *                 cache (DESIGN.md §10). Caching is ON by default
 *                 (.fusion-cache under the working directory, or
 *                 $FUSION_CACHE_DIR); a re-run of an identical
 *                 harness invocation replays completed results
 *                 from disk instead of re-simulating. --no-cache
 *                 restores the pre-cache behaviour byte for byte.
 *
 * Output is identical for every --jobs value: results land by
 * submission index regardless of completion order. When any sweep
 * entry fails, the harness prints a one-line summary of the failed
 * jobs on stderr and exits with status 2 (the SweepReport, when
 * requested, still records every job including the failures).
 */

#ifndef FUSION_BENCH_BENCH_UTIL_HH
#define FUSION_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/reporters.hh"
#include "core/runner.hh"
#include "obs/json_lint.hh"
#include "obs/perfetto.hh"
#include "obs/span_tracer.hh"
#include "sim/logging.hh"
#include "sweep/result_cache.hh"
#include "trace/analysis.hh"
#include "trace/store.hh"

namespace fusion::bench
{

/** Parsed shared harness CLI. */
struct Options
{
    workloads::Scale scale = workloads::Scale::Paper;
    std::size_t jobs = sweep::defaultJobs();
    std::string jsonPath;
    bool guard = false;
    /** --system selection (empty: the harness's own default set).
     *  Harnesses whose comparison is intrinsically fixed print a
     *  note and ignore it. */
    std::vector<core::SystemKind> systems;
    // Telemetry (docs/OBSERVABILITY.md). All default-off: a plain
    // harness run carries no observability state at all.
    std::string traceOut;
    std::string traceKinds;
    std::size_t traceLimit = std::size_t{1} << 16;
    Tick metricsInterval = 0;
    /** --fault/--fault-seed: armed on every job (docs/HARDENING.md). */
    guard::FaultSchedule faults;
    // Trace record/replay + result cache (DESIGN.md §10). Empty dirs
    // mean "use the default location"; --no-cache disables both.
    std::string traceDir; ///< --trace-dir override
    std::string cacheDir; ///< --cache-dir override
    bool noCache = false; ///< --no-cache: pre-cache behaviour
    /** --cache-smoke (test-only): run the sweep twice against a
     *  fresh private cache and assert the second pass is all hits,
     *  builds no program and gives a byte-identical report (the
     *  CacheBenchSmoke entry). */
    bool cacheSmoke = false;

    bool telemetry() const
    {
        return !traceOut.empty() || metricsInterval > 0;
    }
    bool faultsArmed() const { return !faults.empty(); }
};

/**
 * Effective result-cache directory: --cache-dir, else
 * $FUSION_CACHE_DIR, else ".fusion-cache" under the working
 * directory. Empty = caching disabled (--no-cache).
 */
inline std::string
resolvedCacheDir(const Options &opt)
{
    if (opt.noCache)
        return "";
    if (!opt.cacheDir.empty())
        return opt.cacheDir;
    if (const char *env = std::getenv("FUSION_CACHE_DIR"))
        if (*env != '\0')
            return env;
    return ".fusion-cache";
}

/**
 * Effective trace-store directory: --trace-dir, else
 * $FUSION_TRACE_DIR, else "traces" inside the cache directory.
 * Empty = record/replay disabled (--no-cache).
 */
inline std::string
resolvedTraceDir(const Options &opt)
{
    if (opt.noCache)
        return "";
    if (!opt.traceDir.empty())
        return opt.traceDir;
    if (const char *env = std::getenv("FUSION_TRACE_DIR"))
        if (*env != '\0')
            return env;
    std::string cache = resolvedCacheDir(opt);
    return cache.empty() ? "" : cache + "/traces";
}

inline void
usage(const char *argv0)
{
    std::printf("usage: %s [--small] [--jobs N] [--json FILE] "
                "[--guard] [--system K[,K...]] [--trace-out FILE]\n"
                "  --small      CI-size inputs (default: paper "
                "scale)\n"
                "  --jobs N     parallel sweep workers (default: "
                "%zu)\n"
                "  --json FILE  write the machine-readable sweep "
                "report\n"
                "  --system K[,K...]  system kind(s): auto, "
                "scratch, shared, fusion,\n"
                "               fusion-dx, fusion-mesi (short "
                "names accepted;\n"
                "               fixed-comparison harnesses ignore "
                "this)\n"
                "  --guard      enable watchdog + invariant "
                "checkers (docs/HARDENING.md)\n"
                "  --trace-out FILE       write a Perfetto span "
                "trace (docs/OBSERVABILITY.md)\n"
                "  --trace-limit N        spans retained per job "
                "(default 65536)\n"
                "  --trace-kinds a,b,...  only trace these span "
                "kinds (default: all)\n"
                "  --metrics-interval N   sample gauges every N "
                "ticks into the JSON report\n"
                "  --fault KIND[:after[:delay[:prob]]]  arm a fault "
                "on every job (repeatable;\n"
                "               kinds: leak-mshr, drop-writeback, "
                "delay-grant, corrupt-lease,\n"
                "               drop-flit, dup-flit, reorder-flit, "
                "dma-truncate, dma-stall,\n"
                "               corrupt-dir, stale-host-l1; "
                "docs/HARDENING.md)\n"
                "  --fault-seed N         seed for probabilistic "
                "fault draws\n"
                "  --cache-dir DIR        result-cache directory "
                "(default .fusion-cache or\n"
                "               $FUSION_CACHE_DIR); identical re-runs "
                "replay results from disk\n"
                "  --trace-dir DIR        trace record/replay "
                "directory (default: traces/\n"
                "               inside the cache dir, or "
                "$FUSION_TRACE_DIR)\n"
                "  --no-cache             disable trace replay and "
                "the result cache\n"
                "               (byte-identical to the pre-cache "
                "harness behaviour)\n",
                argv0, sweep::defaultJobs());
}

/** Parse a comma-separated --system value into @p out or die. */
inline void
parseSystemList(const char *argv0, const std::string &vals,
                std::vector<core::SystemKind> &out)
{
    std::stringstream ss(vals);
    std::string tok;
    bool any = false;
    while (std::getline(ss, tok, ',')) {
        if (tok.empty())
            continue;
        auto k = core::parseSystemKind(tok);
        if (!k) {
            usage(argv0);
            fusion_fatal("--system: unknown system kind '", tok,
                         "' (want auto, scratch, shared, fusion, "
                         "fusion-dx, or fusion-mesi)");
        }
        out.push_back(*k);
        any = true;
    }
    if (!any) {
        usage(argv0);
        fusion_fatal("--system: empty system list");
    }
}

/**
 * Parse the shared flags. Unrecognized arguments are fatal unless
 * @p extra is given, in which case they are returned for the
 * harness to interpret (positional workload names etc.).
 */
inline Options
parseArgs(int argc, char **argv,
          std::vector<std::string> *extra = nullptr)
{
    // Honor FUSION_DEBUG=ACC,MESI,OBS,... for every harness.
    Debug::initFromEnvironment();
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(argv[0]);
                fusion_fatal("missing value for ", a);
            }
            return argv[++i];
        };
        auto parseFault = [&](const std::string &spec) {
            guard::ArmedFault f;
            if (!guard::parseFaultSpec(spec, f)) {
                usage(argv[0]);
                fusion_fatal("--fault: bad spec '", spec,
                             "' (want KIND[:after[:delay[:prob]]])");
            }
            opt.faults.faults.push_back(f);
        };
        // --system accepts both "--system K" and "--system=K".
        if (a.rfind("--system=", 0) == 0) {
            parseSystemList(argv[0], a.substr(9), opt.systems);
            continue;
        }
        if (a.rfind("--fault=", 0) == 0) {
            parseFault(a.substr(8));
            continue;
        }
        if (a.rfind("--fault-seed=", 0) == 0) {
            opt.faults.seed = std::strtoull(
                a.substr(13).c_str(), nullptr, 10);
            continue;
        }
        if (a == "--system") {
            parseSystemList(argv[0], next(), opt.systems);
        } else if (a == "--small") {
            opt.scale = workloads::Scale::Small;
        } else if (a == "--paper") {
            opt.scale = workloads::Scale::Paper;
        } else if (a == "--jobs") {
            long n = std::atol(next().c_str());
            if (n < 1) {
                usage(argv[0]);
                fusion_fatal("--jobs must be >= 1");
            }
            opt.jobs = static_cast<std::size_t>(n);
        } else if (a == "--json") {
            opt.jsonPath = next();
        } else if (a == "--guard") {
            opt.guard = true;
        } else if (a == "--fault") {
            parseFault(next());
        } else if (a == "--fault-seed") {
            opt.faults.seed =
                std::strtoull(next().c_str(), nullptr, 10);
        } else if (a == "--trace-out") {
            opt.traceOut = next();
        } else if (a == "--trace-kinds") {
            opt.traceKinds = next();
        } else if (a == "--trace-limit") {
            long n = std::atol(next().c_str());
            if (n < 1) {
                usage(argv[0]);
                fusion_fatal("--trace-limit must be >= 1");
            }
            opt.traceLimit = static_cast<std::size_t>(n);
        } else if (a == "--metrics-interval") {
            long n = std::atol(next().c_str());
            if (n < 1) {
                usage(argv[0]);
                fusion_fatal("--metrics-interval must be >= 1");
            }
            opt.metricsInterval = static_cast<Tick>(n);
        } else if (a == "--trace-dir") {
            opt.traceDir = next();
        } else if (a == "--cache-dir") {
            opt.cacheDir = next();
        } else if (a == "--no-cache") {
            opt.noCache = true;
        } else if (a == "--cache-smoke") {
            opt.cacheSmoke = true;
        } else if (a == "-h" || a == "--help") {
            usage(argv[0]);
            std::exit(0);
        } else if (extra) {
            extra->push_back(a);
        } else {
            usage(argv[0]);
            fusion_fatal("unknown option: ", a);
        }
    }
    // --cache-smoke isolates itself in a fresh private cache so the
    // cold pass really is cold and nothing the user cares about is
    // wiped; bench::runSweep removes it again afterwards.
    if (opt.cacheSmoke) {
        namespace fs = std::filesystem;
        std::error_code ec;
        fs::path d = fs::temp_directory_path(ec);
        if (ec)
            d = ".";
        d /= "fusion-cache-smoke-" +
             std::to_string(static_cast<unsigned long>(::getpid()));
        fs::remove_all(d, ec);
        opt.noCache = false;
        opt.cacheDir = d.string();
        opt.traceDir.clear();
    }
    // Arm the global trace record/replay store here, before the
    // harness builds any program: mustBuild() and the sweep engine's
    // ProgramCache both route through core::buildProgram, so every
    // build after this line is captured once and replayed from disk.
    trace::setGlobalStoreDir(resolvedTraceDir(opt));
    return opt;
}

/** Shorthand for the common (paper-preset system, workload) job. */
inline sweep::SweepJob
job(core::SystemKind kind, const std::string &workload,
    workloads::Scale scale)
{
    sweep::SweepJob j;
    j.cfg = core::SystemConfig::preset(
        core::SystemConfig::Preset::Paper, kind);
    j.workload = workload;
    j.scale = scale;
    j.tag = workload + "/" + core::systemKindShortName(kind);
    return j;
}

/** The --system list, or @p defaults when the flag was not given. */
inline std::vector<core::SystemKind>
kindsOrDefault(const Options &opt,
               std::vector<core::SystemKind> defaults)
{
    return opt.systems.empty() ? std::move(defaults) : opt.systems;
}

/** A single-system harness's kind: the first --system value (extras
 *  are rejected), or @p fallback. */
inline core::SystemKind
kindOrDefault(const Options &opt, core::SystemKind fallback)
{
    if (opt.systems.empty())
        return fallback;
    if (opt.systems.size() > 1)
        fusion_fatal("--system: this harness runs exactly one "
                     "system kind");
    return opt.systems.front();
}

/** Fixed-comparison harnesses call this to ignore --system. */
inline void
noteFixedComparison(const Options &opt, const char *what)
{
    if (!opt.systems.empty()) {
        std::fprintf(stderr,
                     "note: %s compares a fixed set of systems; "
                     "--system ignored\n",
                     what);
    }
}

/**
 * Submit @p jobs with the harness options: worker count from
 * --jobs, live progress on stderr when it is a terminal, and the
 * SweepReport written when --json was given. Results are ordered by
 * submission index, so table-rendering code indexes them exactly as
 * it pushed the jobs.
 */
/** The --guard knob set: liveness + safety checks, no fault plan. */
inline guard::GuardConfig
guardChecks()
{
    guard::GuardConfig g;
    g.noProgressTicks = 1u << 20;
    g.invariantPeriod = 256;
    g.invariantsAtEnd = true;
    return g;
}

/** The telemetry knob set for the --trace-... / --metrics-... flags. */
inline obs::ObsConfig
obsConfig(const Options &opt)
{
    obs::ObsConfig oc;
    oc.trace = !opt.traceOut.empty();
    oc.traceLimit = opt.traceLimit;
    oc.metricsInterval = opt.metricsInterval;
    if (!opt.traceKinds.empty()) {
        std::string err;
        oc.traceKindMask = obs::parseKindMask(opt.traceKinds, &err);
        if (!err.empty())
            fusion_fatal("--trace-kinds: ", err);
    }
    return oc;
}

inline std::vector<core::RunResult>
runSweep(const char *sweepName,
         const std::vector<sweep::SweepJob> &jobs,
         const Options &opt)
{
    // --guard / --trace-* / --metrics-interval instrument every job;
    // jobs are otherwise untouched, so a plain harness run stays
    // byte-identical.
    std::vector<sweep::SweepJob> guarded;
    const std::vector<sweep::SweepJob> *list = &jobs;
    if (opt.guard || opt.telemetry() || opt.faultsArmed()) {
        guarded = jobs;
        for (auto &j : guarded) {
            if (opt.guard)
                j.cfg.guard = guardChecks();
            if (opt.faultsArmed())
                j.cfg.guard.schedule = opt.faults;
            if (opt.telemetry())
                j.cfg.obs = obsConfig(opt);
        }
        list = &guarded;
    }

    // Content-addressed result cache (DESIGN.md §10): on by default,
    // off via --no-cache. Telemetry- or fault-instrumented jobs are
    // individually refused by ResultCache::cacheable, so armed
    // flags never change what a cached entry means.
    const std::string cacheDir = resolvedCacheDir(opt);
    std::unique_ptr<sweep::ResultCache> cache;
    if (!cacheDir.empty())
        cache = std::make_unique<sweep::ResultCache>(cacheDir);
    sweep::SweepCacheStats cstats;

    sweep::SweepOptions so;
    so.jobs = opt.jobs;
    so.cache = cache.get();
    so.cacheStats = cache ? &cstats : nullptr;
    if (isatty(STDERR_FILENO)) {
        so.progress = [](const sweep::SweepProgress &p) {
            std::fprintf(stderr, "\r[%zu/%zu] %-32s", p.completed,
                         p.total, p.job->tag.c_str());
            if (p.completed == p.total)
                std::fprintf(stderr, "\n");
        };
    }
    auto results = core::runSweep(*list, so);

    // --cache-smoke: replay the identical sweep against the cache
    // just populated. Every cacheable point must hit, nothing may
    // re-simulate or even decode a trace (hits are keyed by the
    // stored traces' envelope hashes), and the regenerated report
    // (counters aside) must be byte-identical — including the
    // wall-clock perf blocks, which warm runs replay from the stored
    // entries.
    if (opt.cacheSmoke && cache) {
        sweep::SweepCacheStats warm;
        sweep::SweepOptions so2;
        so2.jobs = opt.jobs;
        so2.cache = cache.get();
        so2.cacheStats = &warm;
        auto results2 = core::runSweep(*list, so2);
        const std::string cold = sweep::reportJson(
            sweepName, *list, results, /*includePerf=*/true);
        const std::string rewarmed = sweep::reportJson(
            sweepName, *list, results2, /*includePerf=*/true);
        const bool pass = warm.misses == 0 &&
                          warm.programsBuilt == 0 &&
                          cold == rewarmed;
        std::fprintf(stderr,
                     "cache smoke: cold misses=%llu warm hits=%llu "
                     "misses=%llu programsBuilt=%llu "
                     "report %s => %s\n",
                     static_cast<unsigned long long>(cstats.misses),
                     static_cast<unsigned long long>(warm.hits),
                     static_cast<unsigned long long>(warm.misses),
                     static_cast<unsigned long long>(
                         warm.programsBuilt),
                     cold == rewarmed ? "identical" : "DIFFERS",
                     pass ? "PASS" : "FAIL");
        std::error_code ec;
        std::filesystem::remove_all(cacheDir, ec);
        if (!pass)
            std::exit(2);
    }

    if (!opt.jsonPath.empty()) {
        // Machine-readable reports carry the wall-clock "perf"
        // blocks (per run + sweep aggregate); terminal output and
        // determinism tests never see them. Cache counters ride
        // along whenever the cache was consulted.
        sweep::writeReportFile(opt.jsonPath, sweepName, *list,
                               results, /*includePerf=*/true,
                               cache ? &cstats : nullptr);
        std::fprintf(stderr, "sweep report written to %s\n",
                     opt.jsonPath.c_str());
    }
    if (!opt.traceOut.empty()) {
        // One Perfetto process per job; pid = submission index.
        std::vector<obs::TraceProcess> procs;
        std::size_t spans = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            procs.push_back(
                obs::TraceProcess{(*list)[i].tag, results[i].trace});
            if (results[i].trace)
                spans += results[i].trace->retained();
        }
        std::string err;
        if (!obs::writePerfettoFile(opt.traceOut, procs, &err))
            fusion_fatal("--trace-out: ", err);
        // Self-check: the file we just wrote must parse as JSON
        // (this is what the ObsBenchSmoke ctest entry relies on).
        std::ifstream in(opt.traceOut, std::ios::binary);
        std::stringstream buf;
        buf << in.rdbuf();
        if (!obs::jsonParses(buf.str(), &err)) {
            std::fprintf(stderr,
                         "trace %s failed JSON validation: %s\n",
                         opt.traceOut.c_str(), err.c_str());
            std::exit(2);
        }
        std::fprintf(stderr, "trace written to %s (%zu spans)\n",
                     opt.traceOut.c_str(), spans);
    }

    // Fault isolation: failed jobs are recorded, siblings complete;
    // the harness reports them once, in one line, and exits nonzero.
    std::size_t failed = 0;
    std::string summary;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].failed())
            continue;
        ++failed;
        if (!summary.empty())
            summary += ", ";
        summary += (*list)[i].tag;
        summary += " (";
        summary +=
            guard::errorCategoryName(results[i].error->category);
        summary += ")";
    }
    if (failed != 0) {
        std::fprintf(stderr, "%zu/%zu sweep job(s) FAILED: %s\n",
                     failed, results.size(), summary.c_str());
        std::exit(2);
    }
    return results;
}

/** Build a program by name or die with the known-name list. */
inline trace::Program
mustBuild(const std::string &name, workloads::Scale scale)
{
    auto p = core::buildProgram(name, scale);
    if (!p)
        fusion_fatal(core::unknownWorkloadMessage(name));
    return std::move(*p);
}

/** Display name lookup ("FFT", "DISP.", ...). */
inline std::string
displayName(const std::string &workload)
{
    auto w = workloads::makeWorkload(workload);
    return w ? w->displayName() : workload;
}

/** Print a header banner for a harness. */
inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("=== %s ===\n", what);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("(shapes, not absolute numbers, are the "
                "reproduction target; see EXPERIMENTS.md)\n\n");
}

} // namespace fusion::bench

#endif // FUSION_BENCH_BENCH_UTIL_HH
