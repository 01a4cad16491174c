/**
 * @file
 * Transaction-path throughput microbenchmark: end-to-end events/sec
 * of the full simulator on fig6b-style FUSION runs, plus a
 * component-level transaction churn loop with a counting allocator.
 *
 * Two kinds of rows:
 *
 *  - "churn.hit" / "churn.miss" / "churn.store": a single
 *    accelerator issuing a serial chain of accesses at a real FUSION
 *    tile (L0X -> L1X/ACC -> LLC -> DRAM). The hit row's loads stay
 *    resident in the L0X; the miss row cycles a footprint 4x the L0X
 *    so every load walks the MSHR/lease path and hits in the L1X;
 *    the store row writes under a 64-cycle lease, so write epochs
 *    keep expiring and a self-downgrade sweep (writeback + fresh
 *    write lease) runs about once per store. A global operator-new hook
 *    counts heap allocations across the measured (post-warmup)
 *    region — with the SmallFn/pooled-MSHR/ledger-handle transaction
 *    path the steady state performs zero (DESIGN.md section 8).
 *
 *  - one row per workload: a complete FUSION simulation via
 *    core::runProgram, reporting the RunResult::perf block
 *    (hostSeconds / events / eventsPerSecond) of the best of
 *    --repeat runs.
 *
 *   micro_txn [--churn-ops N] [--workloads A,B,..] [--scale S]
 *             [--repeat N] [--json FILE] [--compare FILE]
 *             [--assert-zero-alloc]
 *
 * --compare loads a previous --json report and prints the per-row
 * events/sec ratio plus the geometric mean over the workload rows,
 * which is how the speedup over a pre-change build is measured.
 * --assert-zero-alloc turns nonzero steady-state churn allocation
 * counts into a fatal error (used by the TxnBenchSmoke ctest entry).
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "accel/tile.hh"
#include "core/runner.hh"
#include "sim/logging.hh"
#include "trace/store.hh"
#include "vm/page_table.hh"

// ---------------------------------------------------------------------
// Counting allocator: every global allocation is tallied while
// g_countAllocs is set. Kept deliberately simple — malloc/free with
// a relaxed atomic counter — since only the churn loop is measured.
// ---------------------------------------------------------------------

namespace
{

std::atomic<std::uint64_t> g_allocCount{0};
std::atomic<bool> g_countAllocs{false};

void *
countedAlloc(std::size_t n)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(a),
                                     (n + static_cast<std::size_t>(a) -
                                      1) &
                                         ~(static_cast<std::size_t>(a) -
                                           1)))
        return p;
    throw std::bad_alloc{};
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return operator new(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace fusion;

/** A minimal FUSION tile under one accelerator: DRAM + LLC + tile. */
struct TxnRig
{
    SimContext ctx;
    mem::Dram dram;
    host::Llc llc;
    vm::PageTable pt;
    std::unique_ptr<accel::FusionTile> tile;

    explicit TxnRig(Cycles lease) : dram(ctx, {}), llc(ctx, {}, dram)
    {
        accel::TileParams tp;
        tp.numAccels = 1;
        tile = std::make_unique<accel::FusionTile>(ctx, tp, llc, pt);
        tile->l0x(0).setFunction(lease, 1);
        pt.ensureMappedRange(1, kBase, 1 << 22);
    }

    static constexpr Addr kBase = 0x10000000;
};

/** Serial load (or store) chain over a cyclic line set. */
struct TxnChurn
{
    TxnRig &rig;
    bool store = false;
    std::vector<Addr> lines;
    std::size_t idx = 0;
    std::uint64_t remaining = 0;

    void
    next()
    {
        Addr a = lines[idx];
        idx = idx + 1 == lines.size() ? 0 : idx + 1;
        rig.tile->l0x(0).access(a, 4, store, [this] {
            if (remaining > 0) {
                --remaining;
                next();
            }
        });
    }
};

struct Row
{
    std::string name;
    double hostSeconds = 0.0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;   ///< churn rows only
    bool hasAllocs = false;

    double
    rate() const
    {
        return hostSeconds > 0.0
                   ? static_cast<double>(events) / hostSeconds
                   : 0.0;
    }
};

/**
 * One churn measurement: warm the working set once (fills, lease
 * grants, vector growth), then measure @p ops transactions with the
 * allocation counter armed.
 */
Row
runChurn(const std::string &name, std::size_t num_lines,
         std::uint64_t ops, bool store, Cycles lease)
{
    TxnRig rig(lease);
    TxnChurn churn{rig, store, {}, 0, 0};
    for (std::size_t i = 0; i < num_lines; ++i)
        churn.lines.push_back(TxnRig::kBase + i * kLineBytes);

    // Warm-up: two full passes so misses fill and every container
    // reaches steady-state capacity.
    churn.remaining = 2 * num_lines;
    churn.next();
    rig.ctx.eq.run();

    churn.idx = 0;
    churn.remaining = ops;
    g_allocCount.store(0, std::memory_order_relaxed);
    g_countAllocs.store(true, std::memory_order_relaxed);
    std::uint64_t ev0 = rig.ctx.eq.executed();
    auto t0 = std::chrono::steady_clock::now();
    churn.next();
    rig.ctx.eq.run();
    auto t1 = std::chrono::steady_clock::now();
    g_countAllocs.store(false, std::memory_order_relaxed);

    Row r;
    r.name = name;
    r.hostSeconds = std::chrono::duration<double>(t1 - t0).count();
    r.events = rig.ctx.eq.executed() - ev0;
    r.allocs = g_allocCount.load(std::memory_order_relaxed);
    r.hasAllocs = true;
    return r;
}

/** Best-of-@p repeat complete FUSION run of one workload. */
Row
runWorkload(const std::string &workload, workloads::Scale scale,
            int repeat)
{
    auto prog = core::buildProgram(workload, scale);
    if (!prog)
        fusion_fatal(core::unknownWorkloadMessage(workload));
    if (trace::globalStore()) {
        // Replay regression (--trace-dir): the build above recorded
        // (or replayed) the trace; a second build must replay from
        // disk and round-trip byte-exactly, so the measured runs
        // below are simulating the very same program either way.
        auto replayed = core::buildProgram(workload, scale);
        fusion_assert(replayed && trace::serializeProgramPayload(
                                      *replayed) ==
                                      trace::serializeProgramPayload(
                                          *prog),
                      "trace replay of '", workload,
                      "' is not byte-exact");
    }
    auto cfg = core::SystemConfig::preset(
        core::SystemConfig::Preset::Paper,
        core::SystemKind::Fusion);

    Row r;
    r.name = workload;
    for (int i = 0; i < repeat; ++i) {
        core::RunResult res = core::runProgram(cfg, *prog);
        fusion_assert(!res.failed(), "run failed: ", workload);
        fusion_assert(res.perf.has_value(),
                      "perf block missing for ", workload);
        if (i == 0 || res.perf->hostSeconds < r.hostSeconds) {
            r.hostSeconds = res.perf->hostSeconds;
            r.events = res.perf->events;
        }
    }
    return r;
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--churn-ops N] [--workloads A,B,..] "
        "[--scale small|paper] [--repeat N] [--json FILE]\n"
        "          [--compare FILE] [--assert-zero-alloc] "
        "[--trace-dir DIR]\n"
        "  --churn-ops N        transactions per churn row "
        "(default 200000; 0 disables)\n"
        "  --workloads LIST     comma-separated end-to-end rows "
        "(default: all; 'none' disables)\n"
        "  --scale S            workload input scale "
        "(default small)\n"
        "  --repeat N           runs per workload row, best kept "
        "(default 3)\n"
        "  --json FILE          machine-readable report with perf "
        "objects\n"
        "  --compare FILE       print events/sec ratios vs a "
        "previous --json report\n"
        "  --assert-zero-alloc  fail if a churn row allocated on "
        "the steady-state path\n"
        "  --trace-dir DIR      record/replay workload traces via "
        "DIR and assert the\n"
        "                       replayed trace is byte-exact\n",
        argv0);
}

/** Pull "name":"X" ... "eventsPerSecond":V pairs out of a report. */
std::vector<std::pair<std::string, double>>
parseReportRates(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fusion_fatal("cannot open ", path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string s = ss.str();
    std::vector<std::pair<std::string, double>> out;
    std::size_t pos = 0;
    while ((pos = s.find("\"name\":\"", pos)) != std::string::npos) {
        pos += 8;
        std::size_t end = s.find('"', pos);
        std::string name = s.substr(pos, end - pos);
        std::size_t eps = s.find("\"eventsPerSecond\":", pos);
        if (eps == std::string::npos)
            break;
        out.emplace_back(
            name, std::strtod(s.c_str() + eps + 18, nullptr));
        pos = eps;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t churn_ops = 200'000;
    std::string workload_list = "all";
    workloads::Scale scale = workloads::Scale::Small;
    int repeat = 3;
    std::string jsonPath;
    std::string comparePath;
    bool assert_zero_alloc = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(argv[0]);
                fusion_fatal("missing value for ", a);
            }
            return argv[++i];
        };
        if (a == "--churn-ops") {
            churn_ops = std::strtoull(next().c_str(), nullptr, 10);
        } else if (a == "--workloads") {
            workload_list = next();
        } else if (a == "--scale") {
            std::string s = next();
            if (s == "small")
                scale = workloads::Scale::Small;
            else if (s == "paper")
                scale = workloads::Scale::Paper;
            else
                fusion_fatal("unknown --scale: ", s);
        } else if (a == "--repeat") {
            repeat = static_cast<int>(
                std::strtol(next().c_str(), nullptr, 10));
            if (repeat < 1)
                fusion_fatal("--repeat must be >= 1");
        } else if (a == "--json") {
            jsonPath = next();
        } else if (a == "--compare") {
            comparePath = next();
        } else if (a == "--assert-zero-alloc") {
            assert_zero_alloc = true;
        } else if (a == "--trace-dir") {
            trace::setGlobalStoreDir(next());
        } else if (a == "-h" || a == "--help") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fusion_fatal("unknown option: ", a);
        }
    }

    std::vector<std::string> workload_names;
    if (workload_list == "all") {
        workload_names = workloads::workloadNames();
    } else if (workload_list != "none") {
        for (std::size_t pos = 0; pos < workload_list.size();) {
            std::size_t comma = workload_list.find(',', pos);
            if (comma == std::string::npos)
                comma = workload_list.size();
            workload_names.push_back(
                workload_list.substr(pos, comma - pos));
            pos = comma + 1;
        }
    }

    std::printf("=== transaction-path throughput ===\n");
    std::printf("%14s %12s %14s %10s\n", "row", "events", "events/s",
                "allocs");

    std::vector<Row> rows;
    if (churn_ops > 0) {
        // The load rows hold one long lease so they measure the
        // transaction path, not lease renewal storms.
        constexpr Cycles kLongLease = 50'000'000;
        rows.push_back(
            runChurn("churn.hit", 16, churn_ops, false, kLongLease));
        // 4x the 4 KB L0X: every access misses the L0X, hits the
        // 64 KB L1X — the MSHR + lease path.
        rows.push_back(
            runChurn("churn.miss", 256, churn_ops, false, kLongLease));
        // Short write epochs: the self-downgrade path.
        rows.push_back(runChurn("churn.store", 16, churn_ops, true, 64));
    }
    for (const auto &w : workload_names)
        rows.push_back(runWorkload(w, scale, repeat));

    bool alloc_violation = false;
    for (const Row &r : rows) {
        std::printf("%14s %12llu %14.3e %10s\n", r.name.c_str(),
                    static_cast<unsigned long long>(r.events),
                    r.rate(),
                    r.hasAllocs
                        ? std::to_string(r.allocs).c_str()
                        : "-");
        if (r.hasAllocs && r.allocs != 0)
            alloc_violation = true;
    }

    if (!comparePath.empty()) {
        auto base = parseReportRates(comparePath);
        double logsum = 0.0;
        double min_ratio = 0.0, max_ratio = 0.0;
        std::string min_row, max_row;
        std::size_t n = 0;
        std::printf("\n%14s %10s\n", "row", "speedup");
        for (const Row &r : rows) {
            for (const auto &[name, rate] : base) {
                if (name != r.name || rate <= 0.0 ||
                    r.rate() <= 0.0)
                    continue;
                double ratio = r.rate() / rate;
                std::printf("%14s %9.2fx\n", r.name.c_str(), ratio);
                // The headline geomean covers the end-to-end
                // workload rows; churn rows print for reference.
                if (!r.hasAllocs) {
                    logsum += std::log(ratio);
                    if (n == 0 || ratio < min_ratio) {
                        min_ratio = ratio;
                        min_row = r.name;
                    }
                    if (n == 0 || ratio > max_ratio) {
                        max_ratio = ratio;
                        max_row = r.name;
                    }
                    ++n;
                }
                break;
            }
        }
        // Per-config variance beside the mean: a single outlier
        // workload must not hide behind the geomean.
        if (n > 0) {
            std::printf("geomean speedup (workload rows): %.2fx "
                        "(min %.2fx @%s, max %.2fx @%s)\n",
                        std::exp(logsum /
                                 static_cast<double>(n)),
                        min_ratio, min_row.c_str(), max_ratio,
                        max_row.c_str());
        }
    }

    if (!jsonPath.empty()) {
        std::FILE *f = std::fopen(jsonPath.c_str(), "w");
        if (!f)
            fusion_fatal("cannot open ", jsonPath);
        std::fprintf(f,
                     "{\"bench\":\"micro_txn\",\"churnOps\":%llu,"
                     "\"repeat\":%d,\"rows\":[",
                     static_cast<unsigned long long>(churn_ops),
                     repeat);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"perf\":{\"hostSeconds\":%.17g,"
                "\"events\":%llu,\"eventsPerSecond\":%.17g}",
                i ? "," : "", r.name.c_str(), r.hostSeconds,
                static_cast<unsigned long long>(r.events),
                r.rate());
            if (r.hasAllocs)
                std::fprintf(f, ",\"allocs\":%llu",
                             static_cast<unsigned long long>(
                                 r.allocs));
            std::fprintf(f, "}");
        }
        std::fprintf(f, "]}\n");
        std::fclose(f);
        std::fprintf(stderr, "txn bench report written to %s\n",
                     jsonPath.c_str());
    }

    if (assert_zero_alloc && alloc_violation)
        fusion_fatal("steady-state transaction path allocated");
    return 0;
}
