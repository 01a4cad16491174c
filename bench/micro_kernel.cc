/**
 * @file
 * Simulation-kernel throughput microbenchmark: schedule/dispatch
 * ops/sec of the production EventQueue itself (calendar buckets +
 * pooled in-place closures, DESIGN.md section 8), with every
 * component model stripped away.
 *
 * The workload mimics the simulator's steady state: a fixed pending
 * set of self-rescheduling events whose deltas (1..8 ticks) look
 * like link/bank latencies and whose closures capture ~48 bytes
 * (this + state), like real component closures.
 *
 *   micro_kernel [--ops N] [--pending A,B,..] [--repeat N]
 *                [--json FILE]
 *
 * Each row is measured --repeat times and the best (minimum-time)
 * sample kept, which filters scheduler noise on loaded machines.
 *
 * With --json the report carries the same "perf" object shape
 * (hostSeconds / events / eventsPerSecond) the sweep reports emit.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace
{

using namespace fusion;

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
 * and 32 bytes of payload (~48 bytes total), inline in the queue's
 * EventFn (sim::SmallFn<void()>).
 */
struct ChurnBench
{
    EventQueue q;
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
    double seconds = 0.0;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--ops N] [--pending A,B,...] [--repeat N] "
        "[--json FILE]\n"
        "  --ops N        dispatches per pending-set size "
        "(default 2000000)\n"
        "  --pending L    comma-separated pending-set sizes "
        "(default 1,64,1024,16384)\n"
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
    std::printf("%10s %14s\n", "pending", "kernel ev/s");

    std::vector<Row> rows;
    for (std::size_t p : pendings) {
        Row row;
        row.pending = p;
        row.events = p + ops;
        for (int rep = 0; rep < repeat; ++rep) {
            double s = ChurnBench{}.measure(p, ops);
            row.seconds = rep ? std::min(row.seconds, s) : s;
        }
        std::printf("%10zu %14.3e\n", p,
                    row.seconds > 0.0
                        ? static_cast<double>(row.events) / row.seconds
                        : 0.0);
        rows.push_back(row);
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
            if (r.seconds > 0.0) {
                std::fprintf(
                    f,
                    ",\"perf\":{\"hostSeconds\":%.17g,"
                    "\"events\":%llu,\"eventsPerSecond\":%.17g}",
                    r.seconds,
                    static_cast<unsigned long long>(r.events),
                    static_cast<double>(r.events) / r.seconds);
            }
            std::fprintf(f, "}");
        }
        std::fprintf(f, "]}\n");
        std::fclose(f);
        std::fprintf(stderr, "kernel bench report written to %s\n",
                     jsonPath.c_str());
    }
    return 0;
}
