/**
 * @file
 * The sweep engine's correctness anchor: the same job list run with
 * 1 worker and with 8 workers produces byte-identical RunResults
 * (via RunResult::toJson()), proving no mutable state is shared
 * across concurrent simulations. Also covers the redesigned
 * experiment API: SystemConfig::validate(), the optional-returning
 * buildProgram(), progress-callback ordering, and the SweepReport.
 *
 * Built as its own binary so a ThreadSanitizer configuration
 * (-DFUSION_TSAN=ON) can run exactly this suite.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/runner.hh"

using namespace fusion;

namespace
{

/** The cross-system job list used by the determinism tests. */
std::vector<core::SweepJob>
mixedJobs()
{
    std::vector<core::SweepJob> jobs;
    for (const auto &name :
         {std::string("fft"), std::string("adpcm"),
          std::string("filter")}) {
        for (auto kind :
             {core::SystemKind::Scratch, core::SystemKind::Shared,
              core::SystemKind::Fusion,
              core::SystemKind::FusionDx}) {
            core::SweepJob j;
            j.cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, kind);
            j.workload = name;
            j.scale = workloads::Scale::Small;
            j.tag = name + "/" + core::systemKindShortName(kind);
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

} // namespace

TEST(Sweep, ParallelMatchesSerialByteForByte)
{
    auto jobs = mixedJobs();

    core::SweepOptions serial;
    serial.jobs = 1;
    auto r1 = core::runSweep(jobs, serial);

    core::SweepOptions parallel;
    parallel.jobs = 8;
    auto r8 = core::runSweep(jobs, parallel);

    ASSERT_EQ(r1.size(), jobs.size());
    ASSERT_EQ(r8.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(r1[i].toJson(), r8[i].toJson())
            << "job " << i << " (" << jobs[i].tag
            << ") diverged between 1 and 8 workers";
    }
}

TEST(Sweep, MatchesDirectRunProgram)
{
    auto prog = core::buildProgram("adpcm", workloads::Scale::Small);
    ASSERT_TRUE(prog.has_value());
    core::RunResult direct = core::runProgram(
        core::SystemConfig::preset(core::SystemConfig::Preset::Paper, core::SystemKind::Fusion),
        *prog);

    core::SweepJob j;
    j.cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
        core::SystemKind::Fusion);
    j.workload = "adpcm";
    j.scale = workloads::Scale::Small;
    core::SweepOptions opt;
    opt.jobs = 4;
    auto results = core::runSweep({j, j, j}, opt);

    ASSERT_EQ(results.size(), 3u);
    for (const auto &r : results)
        EXPECT_EQ(r.toJson(), direct.toJson());
}

TEST(Sweep, SharedPrebuiltProgramAcrossWorkers)
{
    auto prog = std::make_shared<const trace::Program>(
        *core::buildProgram("fft", workloads::Scale::Small));
    std::vector<core::SweepJob> jobs;
    for (std::uint64_t l0x : {1024ull, 2048ull, 4096ull, 8192ull}) {
        core::SweepJob j;
        j.cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
            core::SystemKind::Fusion);
        j.cfg.l0xBytes = l0x;
        j.workload = "fft";
        j.prog = prog;
        jobs.push_back(std::move(j));
    }
    core::SweepOptions opt;
    opt.jobs = 4;
    auto par = core::runSweep(jobs, opt);
    opt.jobs = 1;
    auto ser = core::runSweep(jobs, opt);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(par[i].toJson(), ser[i].toJson());
}

TEST(Sweep, ProgressReportsEveryJobExactlyOnce)
{
    auto jobs = mixedJobs();
    std::atomic<std::size_t> calls{0};
    std::set<std::size_t> seen;
    std::size_t last_completed = 0;
    bool monotone = true;
    core::SweepOptions opt;
    opt.jobs = 8;
    // The engine serializes progress callbacks, so plain containers
    // are safe here.
    opt.progress = [&](const core::SweepProgress &p) {
        ++calls;
        seen.insert(p.index);
        monotone = monotone && p.completed == last_completed + 1;
        last_completed = p.completed;
        EXPECT_EQ(p.total, 12u);
        EXPECT_NE(p.job, nullptr);
    };
    core::runSweep(jobs, opt);
    EXPECT_EQ(calls.load(), jobs.size());
    EXPECT_EQ(seen.size(), jobs.size());
    EXPECT_TRUE(monotone) << "completed counter skipped or repeated";
}

TEST(Sweep, EmptyJobListIsFine)
{
    auto results = core::runSweep({}, core::SweepOptions{8, {}});
    EXPECT_TRUE(results.empty());
}

TEST(Sweep, ReportJsonPairsJobsWithResults)
{
    core::SweepJob j;
    j.cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
        core::SystemKind::Scratch);
    j.workload = "adpcm";
    j.scale = workloads::Scale::Small;
    j.tag = "adpcm/SC";
    auto results = core::runSweep({j});
    std::string json =
        sweep::reportJson("unit", {j}, results);

    EXPECT_NE(json.find("\"sweep\":\"unit\""), std::string::npos);
    EXPECT_NE(json.find("\"tag\":\"adpcm\\/SC\"") != std::string::npos ||
                      json.find("\"tag\":\"adpcm/SC\"") !=
                          std::string::npos,
              false);
    EXPECT_NE(json.find("\"system\":\"SCRATCH\""),
              std::string::npos);
    EXPECT_NE(json.find("\"accelCycles\":"), std::string::npos);
    // The embedded result is the job's toJson, verbatim.
    EXPECT_NE(json.find(results[0].toJson()), std::string::npos);
}

TEST(RunResult, ToJsonIsStableAndEscapes)
{
    core::RunResult r;
    r.workload = "we\"ird";
    r.kind = core::SystemKind::Fusion;
    r.accelCycles = 42;
    r.energyPj["l0x"] = 1.5;
    r.invocationCycles = {1, 2, 3};
    std::string a = r.toJson();
    std::string b = r.toJson();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"workload\":\"we\\\"ird\""),
              std::string::npos);
    EXPECT_NE(a.find("\"accelCycles\":42"), std::string::npos);
    EXPECT_NE(a.find("\"invocationCycles\":[1,2,3]"),
              std::string::npos);
}

TEST(SystemConfig, ValidateAcceptsPaperDefaults)
{
    for (auto kind :
         {core::SystemKind::Scratch, core::SystemKind::Shared,
          core::SystemKind::Fusion, core::SystemKind::FusionDx,
          core::SystemKind::FusionMesi}) {
        EXPECT_TRUE(core::SystemConfig::preset(core::SystemConfig::Preset::Paper, kind)
                        .validate()
                        .empty());
        EXPECT_TRUE(
            core::SystemConfig::preset(core::SystemConfig::Preset::AxcLarge, kind).validate().empty());
    }
}

TEST(SystemConfig, ValidateCatchesMisconfiguration)
{
    core::SystemConfig cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
        core::SystemKind::Fusion);
    cfg.l0xBytes = 3000; // not a power of two
    cfg.l1xBanks = 0;
    cfg.numTiles = 0;
    auto errs = cfg.validate();
    ASSERT_EQ(errs.size(), 3u);
    auto joined = [&] {
        std::string s;
        for (const auto &e : errs)
            s += e + "\n";
        return s;
    }();
    EXPECT_NE(joined.find("L0X capacity"), std::string::npos);
    EXPECT_NE(joined.find("L1X bank count"), std::string::npos);
    EXPECT_NE(joined.find("numTiles"), std::string::npos);
}

TEST(SystemConfig, ValidateCatchesTinyCapacity)
{
    core::SystemConfig cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
        core::SystemKind::Fusion);
    cfg.l0xBytes = 128; // 2 lines, but 4-way: can't hold one set
    auto errs = cfg.validate();
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_NE(errs[0].find("cannot hold one 4-way set"),
              std::string::npos);
}

TEST(SystemConfig, ValidateCatchesPartialSets)
{
    // 3 ways of 64 B lines never divide a power-of-two capacity;
    // CacheArray would abort at construction.
    core::SystemConfig cfg = core::SystemConfig::preset(
        core::SystemConfig::Preset::Paper, core::SystemKind::Fusion);
    cfg.l0xAssoc = 3;
    cfg.l1xAssoc = 3;
    auto errs = cfg.validate();
    ASSERT_EQ(errs.size(), 2u);
    EXPECT_EQ(errs[0].rfind("L0X capacity ", 0), 0u);
    EXPECT_EQ(errs[1].rfind("L1X capacity ", 0), 0u);
    for (const auto &e : errs)
        EXPECT_NE(e.find("does not split into whole 3-way sets"),
                  std::string::npos)
            << e;
}

TEST(Sweep, PartialSetJobIsRefusedBeforeSimulating)
{
    core::SweepJob j;
    j.cfg = core::SystemConfig::preset(
        core::SystemConfig::Preset::Paper, core::SystemKind::Fusion);
    j.cfg.l0xAssoc = 3;
    j.workload = "adpcm";
    j.scale = workloads::Scale::Small;
    EXPECT_EXIT(core::runSweep({j}), ::testing::ExitedWithCode(1),
                "invalid sweep job list");
}

TEST(Runner, BuildProgramReturnsNulloptForUnknownNames)
{
    EXPECT_FALSE(
        core::buildProgram("nope", workloads::Scale::Small)
            .has_value());
    EXPECT_TRUE(
        core::buildProgram("adpcm", workloads::Scale::Small)
            .has_value());
    std::string msg = core::unknownWorkloadMessage("nope");
    EXPECT_NE(msg.find("unknown workload 'nope'"),
              std::string::npos);
    for (const auto &n : workloads::workloadNames())
        EXPECT_NE(msg.find(n), std::string::npos);
}

TEST(Sweep, InvalidJobsDieBeforeSimulating)
{
    std::vector<core::SweepJob> jobs;
    core::SweepJob j;
    j.cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
        core::SystemKind::Fusion);
    j.workload = "not-a-workload";
    j.scale = workloads::Scale::Small;
    jobs.push_back(j);
    EXPECT_EXIT(core::runSweep(jobs),
                ::testing::ExitedWithCode(1),
                "unknown workload 'not-a-workload'");
}

TEST(Sweep, WriteReportFileRoundTrips)
{
    core::SweepJob j;
    j.cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
        core::SystemKind::Fusion);
    j.workload = "adpcm";
    j.scale = workloads::Scale::Small;
    j.tag = "rt";
    auto results = core::runSweep({j});

    std::string path = ::testing::TempDir() + "sweep_rt.json";
    sweep::writeReportFile(path, "roundtrip", {j}, results);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(),
              sweep::reportJson("roundtrip", {j}, results));
    std::remove(path.c_str());
}

TEST(Sweep, PoisonedJobIsIsolatedAndDeterministic)
{
    // One poisoned job (absurdly small cycle budget) between two
    // healthy ones: the failure must be recorded as a structured
    // SweepReport entry while its siblings complete, and the whole
    // report must not depend on the worker count.
    auto makeJobs = [] {
        std::vector<core::SweepJob> jobs;
        core::SweepJob a;
        a.cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
            core::SystemKind::Fusion);
        a.workload = "adpcm";
        a.scale = workloads::Scale::Small;
        a.tag = "healthy/FU";
        jobs.push_back(a);

        core::SweepJob bad = a;
        bad.cfg.guard.maxCycles = 100;
        bad.tag = "poisoned/FU";
        jobs.push_back(bad);

        core::SweepJob c = a;
        c.cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
            core::SystemKind::Scratch);
        c.tag = "healthy/SC";
        jobs.push_back(c);
        return jobs;
    };

    auto jobs = makeJobs();
    core::SweepOptions serial;
    serial.jobs = 1;
    auto rs = core::runSweep(jobs, serial);
    core::SweepOptions parallel;
    parallel.jobs = 8;
    auto rp = core::runSweep(jobs, parallel);

    ASSERT_EQ(rs.size(), 3u);
    EXPECT_FALSE(rs[0].failed());
    EXPECT_GT(rs[0].totalCycles, 0u);
    ASSERT_TRUE(rs[1].failed());
    EXPECT_EQ(rs[1].error->category,
              guard::ErrorCategory::CycleBudget);
    EXPECT_FALSE(rs[1].error->diagnostic.empty());
    EXPECT_EQ(rs[1].workload, "adpcm");
    EXPECT_FALSE(rs[2].failed());
    EXPECT_GT(rs[2].totalCycles, 0u);

    // Byte-identical across worker counts, report included.
    ASSERT_EQ(rp.size(), rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i)
        EXPECT_EQ(rs[i].toJson(), rp[i].toJson()) << "job " << i;
    std::string report = sweep::reportJson("poison", jobs, rs);
    EXPECT_EQ(report, sweep::reportJson("poison", jobs, rp));
    EXPECT_NE(report.find("\"failed\":1"), std::string::npos);
    EXPECT_NE(report.find("\"category\":\"cycle-budget\""),
              std::string::npos);
}

namespace
{

/** A workload whose build() always throws (program-cache tests). */
class ThrowingWorkload : public workloads::Workload
{
  public:
    std::string name() const override { return "boom"; }
    std::string displayName() const override { return "BOOM"; }
    trace::Program
    build(workloads::Scale) const override
    {
        throw std::runtime_error("synthetic build failure");
    }
};

std::unique_ptr<workloads::Workload>
makeBoom()
{
    return std::make_unique<ThrowingWorkload>();
}

} // namespace

TEST(Sweep, FailedProgramBuildPoisonsOnlyItsJobs)
{
    // The program cache builds each (workload, scale) once; when
    // that build throws, the builder *and* every concurrent waiter
    // on the same key must fail as isolated per-job errors while
    // jobs keyed on other programs complete normally.
    workloads::registerWorkload("boom", &makeBoom);

    auto makeJobs = [] {
        std::vector<core::SweepJob> jobs;
        for (auto kind :
             {core::SystemKind::Fusion, core::SystemKind::Shared,
              core::SystemKind::Scratch}) {
            core::SweepJob bad;
            bad.cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, kind);
            bad.workload = "boom";
            bad.scale = workloads::Scale::Small;
            bad.tag = std::string("boom/") +
                      core::systemKindShortName(kind);
            jobs.push_back(bad);

            core::SweepJob ok = bad;
            ok.workload = "adpcm";
            ok.tag = std::string("adpcm/") +
                     core::systemKindShortName(kind);
            jobs.push_back(ok);
        }
        return jobs;
    };

    auto jobs = makeJobs();
    for (std::size_t workers : {std::size_t{1}, std::size_t{6}}) {
        core::SweepOptions opt;
        opt.jobs = workers;
        auto rs = core::runSweep(jobs, opt);
        ASSERT_EQ(rs.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (jobs[i].workload == "boom") {
                ASSERT_TRUE(rs[i].failed())
                    << jobs[i].tag << " with " << workers
                    << " workers";
                // The builder surfaces the original exception; the
                // waiters surface the cache's poisoned-slot error.
                const std::string &msg = rs[i].error->message;
                EXPECT_TRUE(
                    msg.find("synthetic build failure") !=
                        std::string::npos ||
                    msg.find("program build failed for workload "
                             "'boom'") != std::string::npos)
                    << msg;
            } else {
                EXPECT_FALSE(rs[i].failed())
                    << jobs[i].tag << " with " << workers
                    << " workers";
                EXPECT_GT(rs[i].totalCycles, 0u);
            }
        }
    }

    workloads::registerWorkload("boom", nullptr);
}

TEST(Sweep, DeterminismAnchorAcrossAllSystemKinds)
{
    // The kernel-internals anchor: every system organization run
    // twice must serialize byte-identically. Any nondeterminism in
    // the event kernel (ordering, stat accounting, wall-clock data
    // leaking into the default JSON) trips this immediately.
    for (auto kind :
         {core::SystemKind::Scratch, core::SystemKind::Shared,
          core::SystemKind::Fusion, core::SystemKind::FusionDx,
          core::SystemKind::FusionMesi}) {
        core::SweepJob j;
        j.cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, kind);
        j.workload = "adpcm";
        j.scale = workloads::Scale::Small;
        j.tag = core::systemKindShortName(kind);
        auto twice = core::runSweep({j, j});
        ASSERT_EQ(twice.size(), 2u);
        EXPECT_EQ(twice[0].toJson(), twice[1].toJson())
            << "system " << core::systemKindName(kind)
            << " is nondeterministic";
    }
}

TEST(RunResult, PerfIsOptInAndOffByDefault)
{
    auto prog = core::buildProgram("adpcm", workloads::Scale::Small);
    ASSERT_TRUE(prog.has_value());
    core::RunResult r = core::runProgram(
        core::SystemConfig::preset(core::SystemConfig::Preset::Paper, core::SystemKind::Fusion),
        *prog);

    // Every run measures wall-clock throughput...
    ASSERT_TRUE(r.perf.has_value());
    EXPECT_GT(r.perf->events, 0u);
    EXPECT_GE(r.perf->hostSeconds, 0.0);

    // ...but serializes it only on request, so the determinism
    // comparisons above keep holding.
    EXPECT_EQ(r.toJson().find("\"perf\""), std::string::npos);
    std::string with = r.toJson(/*include_perf=*/true);
    EXPECT_NE(with.find("\"perf\":{\"hostSeconds\":"),
              std::string::npos);
    EXPECT_NE(with.find("\"eventsPerSecond\":"), std::string::npos);
    // The perf block is the only difference.
    std::string without = r.toJson();
    std::size_t at = with.find(",\"perf\":{");
    ASSERT_NE(at, std::string::npos);
    std::size_t end = with.find('}', at);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(with.substr(0, at) + with.substr(end + 1), without);
}

TEST(Sweep, ReportPerfAggregateIsOptIn)
{
    core::SweepJob j;
    j.cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
        core::SystemKind::Fusion);
    j.workload = "adpcm";
    j.scale = workloads::Scale::Small;
    j.tag = "agg";
    auto results = core::runSweep({j, j});
    std::string plain = sweep::reportJson("agg", {j, j}, results);
    EXPECT_EQ(plain.find("\"perf\""), std::string::npos);
    std::string with =
        sweep::reportJson("agg", {j, j}, results, true);
    // Per-result blocks plus the sweep-level aggregate.
    std::size_t first = with.find("\"perf\":{");
    ASSERT_NE(first, std::string::npos);
    std::size_t count = 0;
    for (std::size_t at = first; at != std::string::npos;
         at = with.find("\"perf\":{", at + 1))
        ++count;
    EXPECT_EQ(count, 3u);
}

TEST(Sweep, ReportOmitsFailureFieldsWhenAllHealthy)
{
    core::SweepJob j;
    j.cfg = core::SystemConfig::preset(core::SystemConfig::Preset::Paper, 
        core::SystemKind::Fusion);
    j.workload = "adpcm";
    j.scale = workloads::Scale::Small;
    j.tag = "ok";
    auto results = core::runSweep({j});
    std::string report = sweep::reportJson("clean", {j}, results);
    // Guard-off healthy output stays byte-compatible with pre-guard
    // reports: no "failed" counter, no "error" objects.
    EXPECT_EQ(report.find("\"failed\""), std::string::npos);
    EXPECT_EQ(report.find("\"error\""), std::string::npos);
}
