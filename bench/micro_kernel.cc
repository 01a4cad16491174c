/**
 * @file
 * Simulation-kernel throughput microbenchmark: schedule/dispatch
 * ops/sec of the event queue itself, with every component model
 * stripped away.
 *
 * Two implementations run the identical workload:
 *
 *  - "kernel": the production EventQueue (calendar buckets +
 *    allocation-free InlineEvent storage, DESIGN.md section 8)
 *  - "legacy": the pre-overhaul kernel, embedded below verbatim —
 *    a std::priority_queue of std::function entries with copy-pop
 *    semantics — as a toggleable baseline
 *
 * The workload mimics the simulator's steady state: a fixed pending
 * set of self-rescheduling events whose deltas (1..8 ticks) look
 * like link/bank latencies and whose closures capture ~48 bytes
 * (this + state), past libstdc++'s 16-byte std::function SSO, so
 * the legacy queue pays one heap allocation per scheduled event
 * exactly as it did for real component closures.
 *
 *   micro_kernel [--ops N] [--pending A,B,..] [--impl both|kernel|
 *                 legacy] [--repeat N] [--json FILE]
 *
 * Each row is measured --repeat times with the implementations
 * interleaved and the best (minimum-time) sample kept, which filters
 * scheduler noise on loaded machines. The summary line reports the
 * geometric mean of the per-row speedups plus the min/max row, so a
 * single outlier config can't hide behind the mean.
 *
 * With --json the report carries the same "perf" object shape
 * (hostSeconds / events / eventsPerSecond) the sweep reports emit.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace
{

using namespace fusion;

/**
 * The pre-overhaul event queue, kept here as the benchmark
 * baseline: one std::function per event (heap-allocating beyond 16
 * captured bytes) in a single binary heap, popped by copy. Ordering
 * semantics — (when, priority, insertion seq) — match the
 * production kernel, so both sides execute the same event sequence.
 */
class LegacyEventQueue
{
  public:
    Tick now() const { return _now; }

    void
    schedule(Tick when, std::function<void()> fn)
    {
        fusion_assert(when >= _now, "schedule in the past");
        _heap.push(Entry{when, 0, _nextSeq++, std::move(fn)});
    }

    void
    scheduleIn(Cycles delta, std::function<void()> fn)
    {
        schedule(_now + delta, std::move(fn));
    }

    Tick
    run()
    {
        while (!_heap.empty()) {
            Entry e = _heap.top(); // copy-pop, as the old kernel did
            _heap.pop();
            _now = e.when;
            ++_executed;
            e.fn();
        }
        return _now;
    }

    std::uint64_t executed() const { return _executed; }

  private:
    struct Entry
    {
        Tick when;
        int pri;
        std::uint64_t seq;
        std::function<void()> fn;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.pri != b.pri)
                return a.pri > b.pri;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, Later> _heap;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
};

/** xorshift step — cheap, deterministic per-chain delta source. */
inline std::uint64_t
nextState(std::uint64_t x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * One measurement: @p pending self-rescheduling chains dispatching
 * @p ops events total. Returns seconds of wall clock.
 *
 * Each chain's closure captures this-pointer, its xorshift state
 * and 32 bytes of payload (~48 bytes total): inline in InlineEvent,
 * one heap allocation per schedule in std::function.
 */
template <class Queue>
struct ChurnBench
{
    Queue q;
    std::uint64_t remaining = 0;
    std::uint64_t sink = 0;

    void
    arm(std::uint64_t state)
    {
        std::array<std::uint64_t, 4> payload{
            state, state ^ 0x9e3779b97f4a7c15ull, state * 3, ~state};
        q.scheduleIn(1 + (state & 7), [this, state, payload] {
            sink += payload[0] ^ payload[3];
            if (remaining > 0) {
                --remaining;
                arm(nextState(state));
            }
        });
    }

    double
    measure(std::size_t pending, std::uint64_t ops)
    {
        // The chains stop rescheduling once `remaining` hits zero,
        // so total dispatches = pending (seeds) + ops (refills).
        remaining = ops;
        std::uint64_t seed = 0x2545f4914f6cdd1dull;
        for (std::size_t i = 0; i < pending; ++i) {
            seed = nextState(seed);
            arm(seed);
        }
        auto t0 = std::chrono::steady_clock::now();
        q.run();
        auto t1 = std::chrono::steady_clock::now();
        fusion_assert(q.executed() == pending + ops,
                      "dispatch count mismatch: ", q.executed());
        return std::chrono::duration<double>(t1 - t0).count();
    }
};

struct Row
{
    std::size_t pending;
    std::uint64_t events;
    double kernelSec = 0.0;
    double legacySec = 0.0;
};

/** Geomean plus the min/max row of a speedup list, so the spread
 *  prints beside the mean. */
struct SpeedupSummary
{
    double geomean = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::size_t n = 0;

    void
    add(double s)
    {
        if (s <= 0.0)
            return;
        geomean += std::log(s);
        min = n == 0 ? s : std::min(min, s);
        max = n == 0 ? s : std::max(max, s);
        ++n;
    }
    bool
    finish()
    {
        if (n == 0)
            return false;
        geomean = std::exp(geomean / static_cast<double>(n));
        return true;
    }
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--ops N] [--pending A,B,...] "
        "[--impl both|kernel|legacy] [--repeat N] [--json FILE]\n"
        "  --ops N        dispatches per pending-set size "
        "(default 2000000)\n"
        "  --pending L    comma-separated pending-set sizes "
        "(default 1,64,1024,16384)\n"
        "  --impl WHICH   run only one implementation "
        "(default both)\n"
        "  --repeat N     samples per row, best kept "
        "(default 3)\n"
        "  --json FILE    write machine-readable results with "
        "perf objects\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t ops = 2'000'000;
    std::vector<std::size_t> pendings{1, 64, 1024, 16384};
    std::string impl = "both";
    std::string jsonPath;
    int repeat = 3;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(argv[0]);
                fusion_fatal("missing value for ", a);
            }
            return argv[++i];
        };
        if (a == "--ops") {
            ops = std::strtoull(next().c_str(), nullptr, 10);
        } else if (a == "--pending") {
            pendings.clear();
            std::string list = next();
            for (std::size_t pos = 0; pos < list.size();) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                pendings.push_back(static_cast<std::size_t>(
                    std::strtoull(list.substr(pos, comma - pos)
                                      .c_str(),
                                  nullptr, 10)));
                pos = comma + 1;
            }
        } else if (a == "--impl") {
            impl = next();
            if (impl != "both" && impl != "kernel" &&
                impl != "legacy") {
                usage(argv[0]);
                fusion_fatal("unknown --impl: ", impl);
            }
        } else if (a == "--repeat") {
            repeat = static_cast<int>(
                std::strtol(next().c_str(), nullptr, 10));
            if (repeat < 1)
                fusion_fatal("--repeat must be >= 1");
        } else if (a == "--json") {
            jsonPath = next();
        } else if (a == "-h" || a == "--help") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fusion_fatal("unknown option: ", a);
        }
    }
    for (std::size_t p : pendings)
        if (p == 0)
            fusion_fatal("--pending sizes must be >= 1");

    std::printf("=== kernel dispatch throughput ===\n");
    std::printf("%llu dispatches per row; closures capture ~48 B\n\n",
                static_cast<unsigned long long>(ops));
    std::printf("%10s %14s %14s %8s\n", "pending", "kernel ev/s",
                "legacy ev/s", "speedup");

    std::vector<Row> rows;
    for (std::size_t p : pendings) {
        Row row;
        row.pending = p;
        row.events = p + ops;
        // Interleave the implementations across repeats and keep the
        // fastest sample of each, so a load spike hits both sides
        // rather than biasing one row.
        for (int rep = 0; rep < repeat; ++rep) {
            if (impl != "legacy") {
                double s = ChurnBench<EventQueue>{}.measure(p, ops);
                row.kernelSec = rep
                                    ? std::min(row.kernelSec, s)
                                    : s;
            }
            if (impl != "kernel") {
                double s =
                    ChurnBench<LegacyEventQueue>{}.measure(p, ops);
                row.legacySec = rep
                                    ? std::min(row.legacySec, s)
                                    : s;
            }
        }
        auto rate = [&](double sec) {
            return sec > 0.0
                       ? static_cast<double>(row.events) / sec
                       : 0.0;
        };
        std::printf("%10zu %14.3e %14.3e %8s\n", p,
                    rate(row.kernelSec), rate(row.legacySec),
                    (row.kernelSec > 0.0 && row.legacySec > 0.0)
                        ? (std::to_string(row.legacySec /
                                          row.kernelSec)
                               .substr(0, 5) +
                           "x")
                              .c_str()
                        : "-");
        rows.push_back(row);
    }

    SpeedupSummary sum;
    for (const Row &r : rows) {
        if (r.kernelSec > 0.0 && r.legacySec > 0.0)
            sum.add(r.legacySec / r.kernelSec);
    }
    double geomean = 0.0;
    std::size_t speedups = sum.n;
    if (sum.finish()) {
        geomean = sum.geomean;
        std::printf("\ngeomean speedup: %.2fx (min %.2fx, max "
                    "%.2fx over %zu configs)\n",
                    sum.geomean, sum.min, sum.max, sum.n);
    }

    if (!jsonPath.empty()) {
        std::FILE *f = std::fopen(jsonPath.c_str(), "w");
        if (!f)
            fusion_fatal("cannot open ", jsonPath);
        std::fprintf(f, "{\"bench\":\"micro_kernel\",\"ops\":%llu,"
                        "\"repeat\":%d,\"rows\":[",
                     static_cast<unsigned long long>(ops), repeat);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            std::fprintf(f, "%s{\"pending\":%zu", i ? "," : "",
                         r.pending);
            auto put = [&](const char *name, double sec) {
                if (sec <= 0.0)
                    return;
                std::fprintf(
                    f,
                    ",\"%s\":{\"hostSeconds\":%.17g,"
                    "\"events\":%llu,\"eventsPerSecond\":%.17g}",
                    name, sec,
                    static_cast<unsigned long long>(r.events),
                    static_cast<double>(r.events) / sec);
            };
            put("perf", r.kernelSec);
            put("legacyPerf", r.legacySec);
            std::fprintf(f, "}");
        }
        if (speedups > 0) {
            std::fprintf(f,
                         "],\"geomeanSpeedup\":%.17g,"
                         "\"minSpeedup\":%.17g,"
                         "\"maxSpeedup\":%.17g}\n",
                         geomean, sum.min, sum.max);
        } else {
            std::fprintf(f, "]}\n");
        }
        std::fclose(f);
        std::fprintf(stderr, "kernel bench report written to %s\n",
                     jsonPath.c_str());
    }
    return 0;
}
