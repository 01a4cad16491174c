/**
 * @file
 * fusionbench: end-to-end benchmark of the fusion simulator library.
 *
 * One process runs one workload on one thread and times calls into
 * the library's public functions from outside:
 *
 *   fig6b-paper  Figure 6b's 28 jobs (7 workloads x SCRATCH, SHARED,
 *                FUSION, FUSION-Dx) at paper scale, caches off.
 *   large-miss   histogram and tracking at Scale::Large on all five
 *                static organizations plus AUTO. histogram x
 *                FUSION-MESI is a known livelock: it runs as a
 *                correctness-only op, out of wall_s.
 *   sweep-warm   Figure 6b's job list through sweep::runSweep
 *                against a trace store and result cache that set-up
 *                populated with cold passes.
 *
 * Drift correction: a fixed slice of the frozen reference kernel
 * (ref_kernel.hh) runs before each timed op, and a time t measured in
 * a pass is reported as t * (R0 / R)^b, R being the kernel's median
 * seconds per unit over that pass's slices and b the workload's drift
 * exponent: the share of the host's drift its time follows (1 = all,
 * 0 = raw seconds).
 *
 * Every op's output is checked: the FNV-1a digest of its
 * RunResult::toJson() (or, for an expected failure, of its error)
 * must equal the golden in goldens.inc.
 *
 * Usage: fusionbench --workload W --seed N --seconds T --trace 0|1
 *                    --r0 SECONDS_PER_UNIT --workdir DIR
 *                    [--drift-exponent B] [--small] [--spans FILE]
 *        fusionbench --record-goldens [--small]
 * The last stdout line is the result JSON; diagnostics go to stderr.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc_count.hh"
#include "core/system.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep.hh"
#include "trace/analysis.hh"
#include "trace/store.hh"
#include "vm/page_table.hh"
#include "workloads/workload.hh"

#include "ref_kernel.hh"

namespace
{

using namespace fusion;
using Clock = std::chrono::steady_clock;
using core::SystemKind;
using workloads::Scale;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** FNV-1a 64, kept local so the goldens do not depend on the
 *  library's own hash helper. */
std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------
// Goldens

struct Golden
{
    const char *scale;
    const char *tag;
    std::uint64_t digest;
    /** The op is a known failure; its digest covers the error. */
    bool fails;
};

constexpr Golden kGoldens[] = {
#include "goldens.inc"
};

const Golden *
goldenFor(Scale scale, const std::string &tag)
{
    for (const Golden &g : kGoldens) {
        if (tag == g.tag && !std::strcmp(g.scale, scaleName(scale)))
            return &g;
    }
    return nullptr;
}

// ---------------------------------------------------------------
// Drift reference

/**
 * Runs reference slices and turns raw seconds into corrected ones.
 * A pass's R is the median seconds per unit of the slices run before
 * its ops: the median, unlike the total, ignores bursts that hit a
 * few slices but not the ops around them, and a per-pass R follows
 * the drift within a run.
 */
class Drift
{
  public:
    Drift(double r0, double exponent) : _r0(r0), _exponent(exponent) {}

    /** Run one slice; a checksum that moves fails the run. */
    void
    slice(std::uint32_t units)
    {
        fusionbench::RefSlice s = fusionbench::runRefSlice(units);
        _seconds += s.seconds;
        _perUnit.push_back(s.seconds / units);
        auto [it, inserted] = _checksums.try_emplace(units, s.checksum);
        if (!inserted && it->second != s.checksum)
            _stable = false;
    }

    /** Marks the start of a pass; hand it to factor(). */
    std::size_t mark() const { return _perUnit.size(); }

    /** R / R0 over the slices since @p since (1 if none ran). */
    double
    drift(std::size_t since) const
    {
        if (since >= _perUnit.size())
            return 1.0;
        return median(std::vector<double>(
                   _perUnit.begin() + static_cast<std::ptrdiff_t>(since),
                   _perUnit.end())) /
               _r0;
    }

    /** What a pass's raw seconds are multiplied by: (R0 / R)^b over
     *  the slices since @p since. */
    double
    factor(std::size_t since) const
    {
        return std::pow(drift(since), -_exponent);
    }

    /** R / R0 over every slice of the run. */
    double drift() const { return drift(0); }

    double totalSeconds() const { return _seconds; }
    bool stable() const { return _stable; }
    const std::map<std::uint32_t, std::uint64_t> &
    checksums() const
    {
        return _checksums;
    }

  private:
    double _r0;
    double _exponent;
    double _seconds = 0.0;
    std::vector<double> _perUnit;
    std::map<std::uint32_t, std::uint64_t> _checksums;
    bool _stable = true;
};

// ---------------------------------------------------------------
// Spans (traced runs only)

struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root
    std::uint32_t op = 0;     ///< one id per op (0 = not in an op)
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
};

/**
 * In-memory span recorder around each call into the library. Spans
 * are written out at exit; each layer's self time is its spans'
 * duration minus the part their child spans cover.
 */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer *t, std::size_t idx) : _t(t), _idx(idx) {}
        ~Scope()
        {
            if (_t)
                _t->close(_idx);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *_t;
        std::size_t _idx;
    };

    Tracer() : _origin(Clock::now()) {}

    bool on() const { return _on; }
    /** Spans are recorded only while enabled (traced passes). */
    void enable(bool on) { _on = on; }

    /** Open a span; it closes when the Scope dies. No-op when off. */
    Scope
    span(const char *name, std::uint32_t op = 0)
    {
        if (!_on)
            return Scope(nullptr, 0);
        Span s;
        s.id = static_cast<std::uint32_t>(_spans.size() + 1);
        s.parent = _open.empty() ? 0 : _spans[_open.back()].id;
        s.op = op ? op : (_open.empty() ? 0 : _spans[_open.back()].op);
        s.name = name;
        s.start = secondsBetween(_origin, Clock::now());
        _open.push_back(_spans.size());
        _spans.push_back(s);
        return Scope(this, _spans.size() - 1);
    }

    std::size_t size() const { return _spans.size(); }

    /** Self seconds per span name over spans [from, size()). */
    std::map<std::string, double>
    selfTimes(std::size_t from) const
    {
        std::map<std::string, double> self;
        std::vector<double> childTime(_spans.size() - from, 0.0);
        for (std::size_t i = from; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            if (s.parent > from)
                childTime[s.parent - 1 - from] += s.end - s.start;
        }
        for (std::size_t i = from; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            self[s.name] += (s.end - s.start) - childTime[i - from];
        }
        return self;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream f(path);
        f << "[\n";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            char line[256];
            std::snprintf(line, sizeof(line),
                          "{\"id\":%u,\"parent\":%u,\"op\":%u,"
                          "\"name\":\"%s\",\"start\":%.9f,"
                          "\"end\":%.9f}%s\n",
                          s.id, s.parent, s.op, s.name, s.start,
                          s.end, i + 1 < _spans.size() ? "," : "");
            f << line;
        }
        f << "]\n";
    }

    std::uint32_t nextOp() { return ++_ops; }

  private:
    void
    close(std::size_t idx)
    {
        _spans[idx].end = secondsBetween(_origin, Clock::now());
        _open.pop_back();
    }

    bool _on = false;
    Clock::time_point _origin;
    std::vector<Span> _spans;
    std::vector<std::size_t> _open;
    std::uint32_t _ops = 0;
};

// ---------------------------------------------------------------
// Jobs and their checked outcomes

struct Job
{
    std::string workload;
    SystemKind kind = SystemKind::Fusion;
    /** False for correctness-only ops (kept out of wall_s). */
    bool timed = true;

    std::string
    tag() const
    {
        return workload + "/" + core::systemKindShortName(kind);
    }
};

core::SystemConfig
jobConfig(SystemKind kind)
{
    core::SystemConfig cfg =
        core::SystemConfig::preset(core::SystemConfig::Preset::Paper,
                                   kind);
    // The shipped no-progress watchdog, as --guard arms it, without
    // the invariant checkers.
    cfg.guard.noProgressTicks = 1u << 20;
    return cfg;
}

std::vector<Job>
fig6bJobs()
{
    std::vector<Job> jobs;
    for (const std::string &w : workloads::workloadNames()) {
        for (SystemKind k : {SystemKind::Scratch, SystemKind::Shared,
                             SystemKind::Fusion, SystemKind::FusionDx})
            jobs.push_back({w, k, true});
    }
    return jobs;
}

std::vector<Job>
largeMissJobs()
{
    std::vector<Job> jobs;
    for (const char *w : {"histogram", "tracking"}) {
        for (SystemKind k : core::kStaticSystemKinds)
            jobs.push_back({w, k, true});
        jobs.push_back({w, SystemKind::Auto, true});
    }
    // Known livelock: histogram x FUSION-MESI x Scale::Large trips the
    // no-progress watchdog instead of finishing.
    for (Job &j : jobs) {
        if (j.workload == "histogram" && j.kind == SystemKind::FusionMesi)
            j.timed = false;
    }
    return jobs;
}

std::uint64_t
errorDigest(const guard::SimError &e)
{
    return fnv1a(std::string("error ") +
                 guard::errorCategoryName(e.category) + " tick=" +
                 std::to_string(e.tick) + " " + e.component + ": " +
                 e.message);
}

/** The simulated-work counts of one result (exact-repeat checked). */
void
addWorkCounts(const core::RunResult &r, std::map<std::string, double> &c)
{
    c["accel.l0x_fills"] += static_cast<double>(r.l0xFills);
    c["accel.l0x_writebacks"] += static_cast<double>(r.l0xWritebacks);
    c["accel.l0x_forwards"] += static_cast<double>(r.l0xForwards);
    c["accel.l1x_hits"] += static_cast<double>(r.l1xHits);
    c["accel.l1x_misses"] += static_cast<double>(r.l1xMisses);
    c["accel.dma_ops"] += static_cast<double>(r.dmaOps);
    c["interconnect.l0x_l1x_flits"] += static_cast<double>(r.l0xL1xFlits);
    c["interconnect.l1x_l2_data_msgs"] +=
        static_cast<double>(r.l1xL2DataMsgs);
    c["vm.ax_tlb_lookups"] += static_cast<double>(r.axTlbLookups);
    c["host.fwds_to_tile"] += static_cast<double>(r.fwdsToTile);
    c["orchestrator.mode_switches"] += static_cast<double>(r.modeSwitches);
    c["core.accel_cycles"] += static_cast<double>(r.accelCycles);
    c["energy.total_pj"] += r.totalPj();
    c["energy.dram_pj"] += r.component("dram");
}

/** Result of one op, kept per job so sums run in job order. */
struct OpOutcome
{
    bool failed = false;     ///< counts in failed / attempted
    bool unexpected = false; ///< differs from its golden
    std::string note;
    std::map<std::string, double> counts; ///< exact-repeat counts
};

/** Check one op's digest against its golden. */
void
judge(OpOutcome &out, Scale scale, const std::string &tag,
      std::uint64_t digest, bool errored)
{
    const Golden *g = goldenFor(scale, tag);
    out.failed = errored || !g || g->digest != digest;
    out.unexpected = !g || g->digest != digest || g->fails != errored;
    if (out.unexpected) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
        out.note = tag + ": digest " + buf +
                   (g ? " differs from its golden" : " has no golden");
    }
}

// ---------------------------------------------------------------
// Options and output

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double r0 = 0.0;
    std::string workdir = ".";
    std::string spansOut;
    bool small = false;
    bool recordGoldens = false;
    /** Drift exponent b; 0 reports raw seconds (slices still run). */
    double driftExponent = 1.0;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "fusionbench: %s\nusage: fusionbench --workload "
                 "fig6b-paper|large-miss|sweep-warm --seed N "
                 "--seconds T --trace 0|1 --r0 S --workdir DIR "
                 "[--drift-exponent B] [--small] [--spans FILE]\n"
                 "       fusionbench --record-goldens [--small]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--trace")
            o.trace = value() != "0";
        else if (a == "--r0")
            o.r0 = std::stod(value());
        else if (a == "--workdir")
            o.workdir = value();
        else if (a == "--spans")
            o.spansOut = value();
        else if (a == "--small")
            o.small = true;
        else if (a == "--drift-exponent")
            o.driftExponent = std::stod(value());
        else if (a == "--record-goldens")
            o.recordGoldens = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (!o.recordGoldens && (o.workload.empty() || o.r0 <= 0.0))
        usage("--workload and --r0 are required");
    return o;
}

/** Metric name -> (value, unit), printed as the last stdout line. */
class Report
{
  public:
    void
    set(const std::string &name, double value, const char *unit)
    {
        _metrics[name] = {value, unit};
    }

    void
    print(bool correct, std::uint64_t attempted,
          std::uint64_t failed) const
    {
        std::string out = "{\"correct\": ";
        out += correct ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted);
        out += ", \"failed\": " + std::to_string(failed);
        out += ", \"metrics\": {";
        bool first = true;
        for (const auto &[name, m] : _metrics) {
            char buf[96];
            std::snprintf(buf, sizeof(buf), "%.17g", m.first);
            out += first ? "" : ", ";
            out += "\"" + name + "\": {\"value\": " + buf +
                   ", \"unit\": \"" + m.second + "\"}";
            first = false;
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
    }

  private:
    std::map<std::string, std::pair<double, std::string>> _metrics;
};

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------
// Shared run state

/** One timed pass (or set-up repetition) of a workload. */
struct Pass
{
    double raw = 0.0;        ///< raw seconds of the timed ops
    /** Raw seconds of each timed op, by job tag. */
    std::map<std::string, double> opSeconds;
    double drift = 1.0;      ///< R / R0 over this pass's slices
    double factor = 1.0;     ///< R0 / R, or 1 when not corrected
    bool traced = false;
    std::map<std::string, double> layerSeconds; ///< self times (raw)
    std::map<std::string, double> counts;       ///< exact counts

    double corrected() const { return raw * factor; }
};

struct Run
{
    Options opt;
    Drift drift;
    Tracer tracer;
    std::mt19937_64 rng;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> problems;
    std::vector<Pass> setup;
    std::vector<Pass> passes;

    explicit Run(const Options &o)
        : opt(o), drift(o.r0, o.driftExponent), rng(o.seed)
    {
        tracer.enable(o.trace);
    }

    Scale
    scale(Scale full) const
    {
        return opt.small ? Scale::Small : full;
    }

    void
    problem(const std::string &what)
    {
        correct = false;
        if (problems.size() < 20)
            problems.push_back(what);
    }

    void
    count(const OpOutcome &o)
    {
        ++attempted;
        if (o.failed)
            ++failed;
        if (o.unexpected)
            problem(o.note);
    }

    /** Timed phase loop: at least @p minPasses, then until the
     *  requested seconds are spent. */
    template <typename Fn>
    void
    timedLoop(std::size_t minPasses, Fn &&pass)
    {
        auto t0 = Clock::now();
        for (std::size_t n = 0;
             n < minPasses ||
             secondsBetween(t0, Clock::now()) < opt.seconds;
             ++n)
            pass(n);
    }
};

/**
 * Run @p fn on a fresh thread and wait for it. The library keeps
 * per-thread freelists, so an op run on the caller's thread would
 * allocate less when it happens to follow a hungrier op; on a fresh
 * thread every op starts from the same allocator state and its
 * allocation counts repeat exactly, in any order. The caller does
 * nothing until the thread ends, so the run stays serial.
 */
template <typename Fn>
void
onFreshThread(Fn &&fn)
{
    std::thread t(std::forward<Fn>(fn));
    t.join();
}

// ---------------------------------------------------------------
// Simulation workloads: fig6b-paper and large-miss

class SimWorkload
{
  public:
    SimWorkload(Run &run, std::vector<Job> jobs, Scale scale,
                std::uint32_t sliceUnits, int setupReps)
        : _run(run), _jobs(std::move(jobs)), _scale(run.scale(scale)),
          _sliceUnits(sliceUnits), _setupReps(setupReps)
    {
        for (const Job &j : _jobs) {
            if (std::find(_names.begin(), _names.end(), j.workload) ==
                _names.end())
                _names.push_back(j.workload);
        }
    }

    void
    setup()
    {
        for (int rep = 0; rep < _setupReps; ++rep) {
            Pass p;
            p.traced = _run.tracer.on();
            std::size_t firstSpan = _run.tracer.size();
            const std::size_t mark = _run.drift.mark();
            _progs.clear();
            for (const std::string &w : _names) {
                _run.drift.slice(_sliceUnits);
                auto t0 = Clock::now();
                {
                    auto b = _run.tracer.span("workloads.build");
                    auto prog = workloads::buildProgram(w, _scale);
                    if (!prog)
                        fusion_fatal("unknown workload ", w);
                    _progs[w] = std::make_shared<const trace::Program>(
                        std::move(*prog));
                }
                p.raw += secondsBetween(t0, Clock::now());
            }
            p.drift = _run.drift.drift(mark);
            p.factor = _run.drift.factor(mark);
            for (const auto &[w, prog] : _progs) {
                p.counts["workloads.trace_ops"] += static_cast<double>(
                    prog->opCount() + prog->hostInit.size() +
                    prog->hostFinal.size());
            }
            p.layerSeconds = _run.tracer.selfTimes(firstSpan);
            _run.setup.push_back(std::move(p));
        }
    }

    /** One pass over every job, in a seeded order. */
    void
    pass(bool traced)
    {
        std::vector<std::size_t> order(_jobs.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::shuffle(order.begin(), order.end(), _run.rng);

        Pass p;
        p.traced = traced;
        std::vector<OpOutcome> outcomes(_jobs.size());
        std::size_t firstSpan = _run.tracer.size();
        const std::size_t mark = _run.drift.mark();
        {
            auto passSpan = _run.tracer.span("pass");
            for (std::size_t idx : order) {
                const Job &j = _jobs[idx];
                if (!j.timed)
                    continue;
                double seconds = 0.0;
                onFreshThread([&] {
                    _run.drift.slice(_sliceUnits);
                    auto t0 = Clock::now();
                    outcomes[idx] = runOp(j, traced);
                    seconds = secondsBetween(t0, Clock::now());
                });
                p.raw += seconds;
                p.opSeconds[j.tag()] = seconds;
            }
        }
        p.drift = _run.drift.drift(mark);
        p.factor = _run.drift.factor(mark);
        // Correctness-only ops run after the timed ones, untimed.
        for (std::size_t idx : order) {
            if (!_jobs[idx].timed)
                onFreshThread(
                    [&] { outcomes[idx] = runOp(_jobs[idx], false); });
        }
        for (const OpOutcome &o : outcomes) {
            _run.count(o);
            for (const auto &[k, v] : o.counts)
                p.counts[k] += v;
        }
        if (traced)
            p.layerSeconds = _run.tracer.selfTimes(firstSpan);
        _run.passes.push_back(std::move(p));
    }

    /** Print a golden line (goldens.inc format) for every job not
     *  in @p seen. */
    void
    record(std::set<std::string> &seen)
    {
        const char *scale = workloads::scaleName(_scale);
        for (const Job &j : _jobs) {
            if (!seen.insert(scale + j.tag()).second)
                continue;
            std::uint64_t digest = 0;
            bool errored = false;
            auto t0 = Clock::now();
            onFreshThread(
                [&] { execute(j, false, digest, errored, nullptr); });
            std::fprintf(stderr, "%-20s %8.3f s\n", j.tag().c_str(),
                         secondsBetween(t0, Clock::now()));
            std::printf("{\"%s\", \"%s\", 0x%016" PRIx64 "ull, %s},\n",
                        scale, j.tag().c_str(), digest,
                        errored ? "true" : "false");
        }
    }

  private:
    OpOutcome
    runOp(const Job &j, bool traced)
    {
        OpOutcome out;
        std::uint64_t digest = 0;
        bool errored = false;
        auto opSpan = _run.tracer.span("op", _run.tracer.nextOp());
        execute(j, traced, digest, errored, &out.counts);
        judge(out, _scale, j.tag(), digest, errored);
        return out;
    }

    /** Construct, run and serialize one job; fills its digest and,
     *  when @p counts is non-null, its exact-repeat counts. */
    void
    execute(const Job &j, bool traced, std::uint64_t &digest,
            bool &errored, std::map<std::string, double> *counts)
    {
        const trace::Program &prog = *_progs.at(j.workload);
        const core::SystemConfig cfg = jobConfig(j.kind);
        if (traced)
            analyze(j, cfg, prog, *counts);

        core::RunResult r;
        fusionbench::AllocTally tally;
        try {
            std::unique_ptr<core::System> sys;
            {
                auto s = _run.tracer.span("core.construct");
                sys = std::make_unique<core::System>(cfg, prog);
            }
            try {
                auto s = _run.tracer.span("core.run");
                fusionbench::AllocScope scope;
                r = sys->run();
                tally = scope.tally();
            } catch (const guard::SimErrorException &ex) {
                r = core::RunResult{};
                r.error = ex.error();
            }
        } catch (const guard::SimErrorException &ex) {
            r = core::RunResult{};
            r.error = ex.error();
        } catch (const std::exception &ex) {
            r = core::RunResult{};
            r.error = guard::SimError{};
            r.error->category = guard::ErrorCategory::Internal;
            r.error->component = "fusionbench";
            r.error->message = ex.what();
        }

        if (r.failed()) {
            errored = true;
            digest = errorDigest(*r.error);
            if (!counts)
                std::fprintf(stderr, "%s: %s tick=%" PRIu64 " %s\n",
                             j.tag().c_str(),
                             guard::errorCategoryName(r.error->category),
                             static_cast<std::uint64_t>(r.error->tick),
                             r.error->message.c_str());
            return;
        }
        std::string json;
        {
            auto s = _run.tracer.span("core.json");
            json = r.toJson();
        }
        digest = fnv1a(json);
        if (counts) {
            addWorkCounts(r, *counts);
            (*counts)["core.events"] +=
                static_cast<double>(r.perf ? r.perf->events : 0);
            (*counts)["sim.allocs"] += static_cast<double>(tally.allocs);
            (*counts)["sim.alloc_bytes"] +=
                static_cast<double>(tally.bytes);
        }
    }

    /** The trace analyses and page mapping this job's System
     *  constructor and run perform, timed from outside. */
    void
    analyze(const Job &j, const core::SystemConfig &cfg,
            const trace::Program &prog,
            std::map<std::string, double> &counts)
    {
        std::uint64_t sink = 0;
        {
            auto s = _run.tracer.span("trace.analysis");
            sink += trace::footprintLines(prog);
            if (j.kind == SystemKind::Scratch) {
                for (const auto &inv : prog.invocations)
                    sink += trace::segmentWindows(
                                inv, cfg.scratchpadBytes / kLineBytes)
                                .size();
            }
            if (j.kind == SystemKind::FusionDx ||
                j.kind == SystemKind::Auto)
                sink += trace::planForwarding(prog).size();
            if (j.kind == SystemKind::Auto) {
                sink += trace::planForwarding(prog).size();
                for (const auto &inv : prog.invocations)
                    sink += trace::footprintLines(inv.ops);
            }
        }
        {
            auto s = _run.tracer.span("vm.map");
            vm::PageTable pt;
            std::uint64_t calls = 0;
            auto mapOps = [&](const std::vector<trace::TraceOp> &ops) {
                for (const auto &op : ops) {
                    if (op.kind != trace::OpKind::Compute) {
                        sink += pt.ensureMapped(prog.pid, op.addr);
                        ++calls;
                    }
                }
            };
            mapOps(prog.hostInit);
            mapOps(prog.hostFinal);
            for (const auto &inv : prog.invocations)
                mapOps(inv.ops);
            counts["vm.map_calls"] += static_cast<double>(calls);
        }
        _sink += sink;
    }

    Run &_run;
    std::vector<Job> _jobs;
    Scale _scale;
    std::uint32_t _sliceUnits;
    int _setupReps;
    std::vector<std::string> _names;
    std::map<std::string, std::shared_ptr<const trace::Program>> _progs;
    /** Analysis results folded together so none is elided. */
    std::uint64_t _sink = 0;

  public:
    std::uint64_t sink() const { return _sink; }
};

// ---------------------------------------------------------------
// sweep-warm

class SweepWarm
{
  public:
    SweepWarm(Run &run, std::uint32_t sliceUnits, int setupReps)
        : _run(run), _scale(run.scale(Scale::Paper)),
          _sliceUnits(sliceUnits),
          _setupReps(setupReps),
          _root(std::filesystem::path(run.opt.workdir) / "sweep-warm"),
          _traceDir((_root / "traces").string()),
          _cacheDir((_root / "results").string())
    {
        // The harness's job order, not a seeded one: the order in which
        // the traces are decoded decides the allocator's history, which
        // moves this workload's peak RSS by ~10% and its time with it.
        for (const Job &j : fig6bJobs()) {
            sweep::SweepJob sj;
            sj.cfg = jobConfig(j.kind);
            sj.workload = j.workload;
            sj.scale = _scale;
            sj.tag = j.tag();
            _jobs.push_back(std::move(sj));
        }
    }

    ~SweepWarm()
    {
        trace::setGlobalStoreDir("");
        std::error_code ec;
        std::filesystem::remove_all(_root, ec);
    }

    SweepWarm(const SweepWarm &) = delete;
    SweepWarm &operator=(const SweepWarm &) = delete;

    /** Cold populating passes: trace store and cache start empty. */
    void
    setup()
    {
        for (int rep = 0; rep < _setupReps; ++rep) {
            std::error_code ec;
            std::filesystem::remove_all(_root, ec);
            Pass p;
            const std::size_t mark = _run.drift.mark();
            _run.drift.slice(_sliceUnits);
            sweep::SweepCacheStats cs;
            double sliceSeconds = 0.0;
            std::vector<core::RunResult> results;
            auto t0 = Clock::now();
            trace::setGlobalStoreDir(_traceDir);
            results = sweepWithSlices(cs, sliceSeconds);
            _coldReport = sweep::reportJson(kName, _jobs, results);
            p.raw = secondsBetween(t0, Clock::now()) - sliceSeconds;
            p.drift = _run.drift.drift(mark);
            p.factor = _run.drift.factor(mark);
            if (cs.misses != _jobs.size())
                _run.problem("cold pass: " + std::to_string(cs.misses) +
                             " cache misses, expected " +
                             std::to_string(_jobs.size()));
            checkResults(results, false);
            _run.setup.push_back(std::move(p));
        }
    }

    /** One warm sweep through the public entry point. */
    void
    pass()
    {
        Pass p;
        const std::size_t mark = _run.drift.mark();
        _run.drift.slice(_sliceUnits);
        sweep::SweepCacheStats cs;
        double sliceSeconds = 0.0;
        auto t0 = Clock::now();
        std::vector<core::RunResult> results =
            sweepWithSlices(cs, sliceSeconds);
        std::string report = sweep::reportJson(kName, _jobs, results);
        p.raw = secondsBetween(t0, Clock::now()) - sliceSeconds;
        p.opSeconds["sweep"] = p.raw;
        p.drift = _run.drift.drift(mark);
        p.factor = _run.drift.factor(mark);
        p.counts["sweep.cache.hits"] = static_cast<double>(cs.hits);
        p.counts["sweep.cache.misses"] = static_cast<double>(cs.misses);
        finishWarm(p, cs.hits, results, report);
    }

    /**
     * The warm path's steps called one by one, each in a span, in
     * the order runSweep takes them: a job's trace is loaded and
     * hashed when the job is the first of its workload.
     */
    void
    tracedPass()
    {
        Pass p;
        p.traced = true;
        std::size_t firstSpan = _run.tracer.size();
        const std::size_t mark = _run.drift.mark();
        _run.drift.slice(_sliceUnits);
        std::vector<core::RunResult> results(_jobs.size());
        std::string report;
        std::uint64_t hits = 0, misses = 0;
        double sliceSeconds = 0.0;
        auto t0 = Clock::now();
        {
            auto passSpan = _run.tracer.span("pass");
            trace::TraceStore store(_traceDir);
            sweep::ResultCache cache(_cacheDir);
            std::map<std::string, std::uint64_t> progHash;
            for (std::size_t i = 0; i < _jobs.size(); ++i) {
                if (i > 0)
                    sliceSeconds += sliceWithin();
                const sweep::SweepJob &j = _jobs[i];
                auto op = _run.tracer.span("op", _run.tracer.nextOp());
                if (!progHash.count(j.workload)) {
                    std::optional<trace::Program> prog;
                    {
                        auto s = _run.tracer.span("trace.store.load");
                        prog = store.load(j.workload, _scale);
                    }
                    if (!prog)
                        _run.problem("trace store miss for " +
                                     j.workload);
                    auto s = _run.tracer.span("trace.hash");
                    progHash[j.workload] =
                        prog ? trace::programHash(*prog) : 0;
                }
                auto s = _run.tracer.span("sweep.cache.lookup");
                sweep::CacheKey key{j.cfg.canonicalHash(),
                                    progHash[j.workload]};
                if (auto hit = cache.lookup(key)) {
                    results[i] = std::move(*hit);
                    ++hits;
                } else {
                    ++misses;
                }
            }
            auto s = _run.tracer.span("sweep.report");
            report = sweep::reportJson(kName, _jobs, results);
        }
        p.raw = secondsBetween(t0, Clock::now()) - sliceSeconds;
        p.opSeconds["sweep"] = p.raw;
        p.drift = _run.drift.drift(mark);
        p.factor = _run.drift.factor(mark);
        p.layerSeconds = _run.tracer.selfTimes(firstSpan);
        p.counts["sweep.cache.hits"] = static_cast<double>(hits);
        p.counts["sweep.cache.misses"] = static_cast<double>(misses);
        finishWarm(p, hits, results, report);
    }

    /** Bytes of the stored traces (read by every warm pass). */
    double
    storeBytes() const
    {
        trace::TraceStore store(_traceDir);
        double bytes = 0.0;
        std::vector<std::string> seen;
        for (const sweep::SweepJob &j : _jobs) {
            if (std::find(seen.begin(), seen.end(), j.workload) !=
                seen.end())
                continue;
            seen.push_back(j.workload);
            std::error_code ec;
            bytes += static_cast<double>(std::filesystem::file_size(
                store.path(j.workload, _scale), ec));
        }
        return bytes;
    }

  private:
    static constexpr const char *kName = "fig6b_performance";

    /** A slice inside a timed region; @return its wall seconds,
     *  which the caller subtracts. */
    double
    sliceWithin()
    {
        auto t0 = Clock::now();
        _run.drift.slice(_sliceUnits);
        return secondsBetween(t0, Clock::now());
    }

    /** runSweep against the cache, with a slice before every job
     *  (the caller runs the first). */
    std::vector<core::RunResult>
    sweepWithSlices(sweep::SweepCacheStats &cs, double &sliceSeconds)
    {
        sweep::ResultCache cache(_cacheDir);
        sweep::SweepOptions so;
        so.jobs = 1;
        so.cache = &cache;
        so.cacheStats = &cs;
        // With one worker the engine calls this on this thread
        // between jobs.
        so.progress = [&](const sweep::SweepProgress &pr) {
            if (pr.completed < pr.total)
                sliceSeconds += sliceWithin();
        };
        return sweep::runSweep(_jobs, so);
    }

    void
    finishWarm(Pass &p, std::uint64_t hits,
               const std::vector<core::RunResult> &results,
               const std::string &report)
    {
        if (hits != _jobs.size())
            _run.problem("warm pass: " + std::to_string(hits) + "/" +
                         std::to_string(_jobs.size()) + " cache hits");
        if (report != _coldReport)
            _run.problem("warm report differs from the cold pass");
        p.counts.merge(checkResults(results, true));
        _run.passes.push_back(std::move(p));
    }

    /** Digest every served result; warm ones count as ops. */
    std::map<std::string, double>
    checkResults(const std::vector<core::RunResult> &results, bool ops)
    {
        std::vector<OpOutcome> outcomes(_jobs.size());
        for (std::size_t i = 0; i < _jobs.size(); ++i) {
            const core::RunResult &r = results[i];
            std::uint64_t digest = r.failed() ? errorDigest(*r.error)
                                              : fnv1a(r.toJson());
            judge(outcomes[i], _scale, _jobs[i].tag, digest,
                  r.failed());
            if (!r.failed())
                addWorkCounts(r, outcomes[i].counts);
        }
        std::map<std::string, double> counts;
        for (const OpOutcome &o : outcomes) {
            if (ops)
                _run.count(o);
            else if (o.unexpected)
                _run.problem("cold pass: " + o.note);
            for (const auto &[k, v] : o.counts)
                counts[k] += v;
        }
        return counts;
    }

    Run &_run;
    Scale _scale;
    std::uint32_t _sliceUnits;
    int _setupReps;
    std::filesystem::path _root;
    std::string _traceDir;
    std::string _cacheDir;
    std::vector<sweep::SweepJob> _jobs;
    std::string _coldReport;
};

// ---------------------------------------------------------------
// Metrics

/** Span name -> per-layer time metric. */
const std::pair<const char *, const char *> kLayerTimes[] = {
    {"trace.analysis", "trace.analysis_s"},
    {"vm.map", "vm.map_s"},
    {"core.construct", "core.construct_s"},
    {"core.run", "core.run_s"},
    {"core.json", "core.json_s"},
    {"trace.store.load", "trace.store.load_s"},
    {"trace.hash", "trace.hash_s"},
    {"sweep.cache.lookup", "sweep.cache.lookup_s"},
    {"sweep.report", "sweep.report_s"},
};

/** Exact counts and their units; absent ones print as 0. */
const std::pair<const char *, const char *> kCounts[] = {
    {"workloads.trace_ops", "count"},
    {"trace.store.bytes", "bytes"},
    {"vm.map_calls", "count"},
    {"core.events", "count"},
    {"sim.allocs", "count"},
    {"sim.alloc_bytes", "bytes"},
    {"sweep.cache.hits", "count"},
    {"sweep.cache.misses", "count"},
    {"accel.l0x_fills", "count"},
    {"accel.l0x_writebacks", "count"},
    {"accel.l0x_forwards", "count"},
    {"accel.l1x_hits", "count"},
    {"accel.l1x_misses", "count"},
    {"accel.dma_ops", "count"},
    {"interconnect.l0x_l1x_flits", "count"},
    {"interconnect.l1x_l2_data_msgs", "count"},
    {"vm.ax_tlb_lookups", "count"},
    {"host.fwds_to_tile", "count"},
    {"orchestrator.mode_switches", "count"},
    {"core.accel_cycles", "cycles"},
    {"energy.total_pj", "pJ"},
    {"energy.dram_pj", "pJ"},
};

std::vector<const Pass *>
select(const std::vector<Pass> &passes, bool traced)
{
    std::vector<const Pass *> out;
    for (const Pass &p : passes) {
        if (p.traced == traced)
            out.push_back(&p);
    }
    return out;
}

double
medianCorrected(const std::vector<const Pass *> &ps)
{
    std::vector<double> v;
    for (const Pass *p : ps)
        v.push_back(p->corrected());
    return median(v);
}

/**
 * Sum over ops of each op's median drift-corrected seconds across
 * @p ps. Per-op medians drop the bursts that hit one op in one pass.
 */
double
opMedianSum(const std::vector<const Pass *> &ps)
{
    std::map<std::string, std::vector<double>> byOp;
    for (const Pass *p : ps) {
        for (const auto &[op, seconds] : p->opSeconds)
            byOp[op].push_back(seconds * p->factor);
    }
    double sum = 0.0;
    for (const auto &[op, v] : byOp)
        sum += median(v);
    return sum;
}

double
medianRaw(const std::vector<const Pass *> &ps)
{
    std::vector<double> v;
    for (const Pass *p : ps)
        v.push_back(p->raw);
    return median(v);
}

/** Median over @p ps of one span name's drift-corrected self time. */
double
medianLayer(const std::vector<const Pass *> &ps, const char *span)
{
    std::vector<double> v;
    for (const Pass *p : ps) {
        auto it = p->layerSeconds.find(span);
        v.push_back(it == p->layerSeconds.end() ? 0.0
                                                : it->second * p->factor);
    }
    return median(v);
}

/** Exact-repeat tripwire: every pass of a kind has equal counts. */
void
checkRepeat(Run &run, const std::vector<const Pass *> &ps,
            const char *what)
{
    for (const Pass *p : ps) {
        if (p->counts == ps.front()->counts)
            continue;
        for (const auto &[k, v] : ps.front()->counts) {
            auto it = p->counts.find(k);
            if (it == p->counts.end() || it->second != v) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "nondeterministic %s count %s: %.17g vs "
                              "%.17g",
                              what, k.c_str(), v,
                              it == p->counts.end() ? -1.0
                                                    : it->second);
                run.problem(buf);
                return;
            }
        }
        run.problem(std::string("nondeterministic ") + what +
                    " counts");
        return;
    }
}

int
recordGoldens(const Options &opt)
{
    Options o = opt;
    o.r0 = 1.0;
    Run run(o);
    std::set<std::string> seen;
    for (bool large : {false, true}) {
        SimWorkload w(run, large ? largeMissJobs() : fig6bJobs(),
                      large ? Scale::Large : Scale::Paper, 0, 1);
        w.setup();
        w.record(seen);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.recordGoldens)
        return recordGoldens(opt);

    Run run(opt);
    Report report;
    double storeBytes = 0.0;
    std::uint64_t sink = 0;
    const bool sweepWarm = opt.workload == "sweep-warm";

    // A traced run alternates untraced and traced passes, so the
    // tracing overhead is measured against the same stretch of time.
    auto traced = [&](std::size_t n) { return opt.trace && n % 2 == 1; };
    const std::size_t minPasses = opt.trace ? 2 : 1;

    if (opt.workload == "fig6b-paper" || opt.workload == "large-miss") {
        const bool large = opt.workload == "large-miss";
        SimWorkload w(run, large ? largeMissJobs() : fig6bJobs(),
                      large ? Scale::Large : Scale::Paper,
                      large ? 150 : 30, 9);
        w.setup();
        run.timedLoop(minPasses, [&](std::size_t n) {
            run.tracer.enable(traced(n));
            w.pass(traced(n));
        });
        sink = w.sink();
    } else if (sweepWarm) {
        SweepWarm w(run, 3, 3);
        w.setup();
        run.timedLoop(minPasses, [&](std::size_t n) {
            run.tracer.enable(traced(n));
            if (traced(n))
                w.tracedPass();
            else
                w.pass();
        });
        storeBytes = w.storeBytes();
    } else {
        usage(("unknown workload " + opt.workload).c_str());
    }

    const auto untracedPasses = select(run.passes, false);
    const auto tracedPasses = select(run.passes, true);
    std::vector<const Pass *> setupReps;
    for (const Pass &p : run.setup)
        setupReps.push_back(&p);
    checkRepeat(run, untracedPasses, "pass");
    checkRepeat(run, tracedPasses, "traced pass");
    checkRepeat(run, setupReps, "set-up");
    if (!run.drift.stable())
        run.problem("reference kernel checksum moved");

    if (!opt.trace) {
        report.set("wall_s", opMedianSum(untracedPasses), "s");
        report.set("setup_s", medianCorrected(setupReps), "s");
        report.set("peak_rss_mb", peakRssMiB(), "MiB");
        report.set("success_rate",
                   run.attempted
                       ? static_cast<double>(run.attempted - run.failed) /
                             static_cast<double>(run.attempted)
                       : 0.0,
                   "ratio");
    } else {
        for (const auto &[span, metric] : kLayerTimes)
            report.set(metric, medianLayer(tracedPasses, span), "s");
        report.set("workloads.build_s",
                   medianLayer(setupReps, "workloads.build"), "s");
        std::map<std::string, double> counts =
            tracedPasses.empty() ? std::map<std::string, double>{}
                                 : tracedPasses.front()->counts;
        if (!setupReps.empty())
            counts.merge(std::map<std::string, double>(
                setupReps.front()->counts));
        counts["trace.store.bytes"] = storeBytes;
        for (const auto &[name, unit] : kCounts)
            report.set(name, counts.count(name) ? counts[name] : 0.0,
                       unit);
        double runS = medianLayer(tracedPasses, "core.run");
        double events = counts["core.events"];
        report.set("core.ns_per_event",
                   events > 0 ? runS * 1e9 / events : 0.0, "ns");
        const double untracedWall = opMedianSum(untracedPasses);
        const double tracedWall = opMedianSum(tracedPasses);
        double steps = 0.0;
        if (sweepWarm) {
            for (const char *s : {"trace.store.load", "trace.hash",
                                  "sweep.cache.lookup", "sweep.report"})
                steps += medianLayer(tracedPasses, s);
        }
        report.set("sweep.overhead_s",
                   sweepWarm ? untracedWall - steps : 0.0, "s");
        report.set("bench.ref_s", run.drift.totalSeconds(), "s");
        report.set("bench.drift", run.drift.drift(), "ratio");
        report.set("bench.raw_wall_s", medianRaw(untracedPasses), "s");
        report.set("bench.trace_overhead_s", tracedWall - untracedWall,
                   "s");
        std::fprintf(stderr,
                     "fusionbench: tracing overhead %.4f s "
                     "(traced %.4f s - untraced %.4f s)\n",
                     tracedWall - untracedWall, tracedWall,
                     untracedWall);
        if (!opt.spansOut.empty())
            run.tracer.write(opt.spansOut);
    }

    for (const auto &[units, sum] : run.drift.checksums())
        std::fprintf(stderr,
                     "fusionbench: reference checksum %u units "
                     "%016" PRIx64 "\n",
                     units, sum);
    std::fprintf(stderr,
                 "fusionbench: %s passes=%zu setup=%zu drift=%.4f "
                 "raw_wall=%.6f raw_setup=%.6f sink=%" PRIu64 "\n",
                 opt.workload.c_str(), run.passes.size(),
                 run.setup.size(), run.drift.drift(),
                 medianRaw(untracedPasses), medianRaw(setupReps), sink);
    for (const Pass &p : run.setup)
        std::fprintf(stderr, "fusionbench: setup raw=%.6f drift=%.6f\n",
                     p.raw, p.drift);
    for (const Pass &p : run.passes)
        std::fprintf(stderr,
                     "fusionbench: pass raw=%.6f drift=%.6f traced=%d\n",
                     p.raw, p.drift, p.traced ? 1 : 0);
    for (const std::string &p : run.problems)
        std::fprintf(stderr, "fusionbench: FAIL %s\n", p.c_str());
    report.print(run.correct, run.attempted, run.failed);
    return 0;
}
