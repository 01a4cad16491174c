/**
 * @file
 * Result-cache tests (src/sweep/result_cache.*, DESIGN.md §10):
 *
 *  - SystemConfig::canonicalHash() moves for EVERY user-settable
 *    knob and is value-based (explicitly-assigned defaults hash
 *    like untouched defaults) — the property that makes the hash a
 *    safe cache key.
 *  - RunResult binary round trips are toJson()-byte-identical,
 *    including the wall-clock perf block.
 *  - ResultCache disk behavior: hit/miss, corrupt entries degrade
 *    to misses and are deleted, the byte cap evicts oldest-first,
 *    failed results are never stored.
 *  - runSweep() integration: cold-then-warm byte identity, lazy
 *    transforms, identical jobs, telemetry/fault bypass, and the
 *    cache-off path matching the cache-on results exactly.
 *  - The warm path over an armed trace store: hits keyed by stored
 *    traces' verified envelope hashes build no program at all, and
 *    a corrupt or undecodable stored trace is regenerated without a
 *    result ever being stored under the bad image's hash.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "core/runner.hh"
#include "sim/hash.hh"
#include "sim/wire.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep.hh"
#include "trace/store.hh"
#include "workloads/workload.hh"

namespace fusion::sweep
{
namespace
{

namespace fs = std::filesystem;
using core::RunResult;
using core::SystemConfig;
using core::SystemKind;

class TempDir
{
  public:
    explicit TempDir(const char *tag)
        : _path(fs::temp_directory_path() /
                (std::string("fusion-test-") + tag + "-" +
                 std::to_string(::getpid())))
    {
        fs::remove_all(_path);
        fs::create_directories(_path);
    }
    ~TempDir() { fs::remove_all(_path); }
    std::string str() const { return _path.string(); }

  private:
    fs::path _path;
};

// ---------------------------------------------------------------
// canonicalHash.
// ---------------------------------------------------------------

/** Every user-settable knob must move the hash. A knob missing from
 *  this table (or from canonicalHash) means a config change could
 *  alias a stale cache entry — extend BOTH when adding a field. */
TEST(CanonicalHash, EveryKnobChangesTheHash)
{
    struct Knob
    {
        const char *name;
        void (*mutate)(SystemConfig &);
    };
    const Knob kKnobs[] = {
        {"kind",
         [](SystemConfig &c) { c.kind = SystemKind::Scratch; }},
        {"scratchpadBytes",
         [](SystemConfig &c) { c.scratchpadBytes *= 2; }},
        {"l0xBytes", [](SystemConfig &c) { c.l0xBytes *= 2; }},
        {"l0xAssoc", [](SystemConfig &c) { c.l0xAssoc *= 2; }},
        {"l0xRepl",
         [](SystemConfig &c) {
             c.l0xRepl = c.l0xRepl == mem::ReplPolicy::Lru
                             ? mem::ReplPolicy::Fifo
                             : mem::ReplPolicy::Lru;
         }},
        {"l1xBytes", [](SystemConfig &c) { c.l1xBytes *= 2; }},
        {"l1xAssoc", [](SystemConfig &c) { c.l1xAssoc *= 2; }},
        {"l1xBanks", [](SystemConfig &c) { c.l1xBanks *= 2; }},
        {"l0xWriteThrough",
         [](SystemConfig &c) {
             c.l0xWriteThrough = !c.l0xWriteThrough;
         }},
        {"overlapInvocations",
         [](SystemConfig &c) {
             c.overlapInvocations = !c.overlapInvocations;
         }},
        {"numTiles", [](SystemConfig &c) { c.numTiles += 1; }},
        {"dmaMaxOutstanding",
         [](SystemConfig &c) { c.dmaMaxOutstanding += 1; }},
        {"guard.maxCycles",
         [](SystemConfig &c) { c.guard.maxCycles += 1000; }},
        {"guard.maxWallMs",
         [](SystemConfig &c) { c.guard.maxWallMs += 1000; }},
        {"guard.noProgressTicks",
         [](SystemConfig &c) { c.guard.noProgressTicks += 100; }},
        {"guard.invariantPeriod",
         [](SystemConfig &c) { c.guard.invariantPeriod += 64; }},
        {"guard.invariantsAtEnd",
         [](SystemConfig &c) {
             c.guard.invariantsAtEnd = !c.guard.invariantsAtEnd;
         }},
        {"guard.schedule.seed",
         [](SystemConfig &c) { c.guard.schedule.seed += 1; }},
        {"guard.schedule.faults",
         [](SystemConfig &c) {
             c.guard.schedule.faults.push_back(
                 {guard::FaultKind::DropFlit, 3, 0, 0.5});
         }},
        {"obs.trace",
         [](SystemConfig &c) { c.obs.trace = !c.obs.trace; }},
        {"obs.traceKindMask",
         [](SystemConfig &c) { c.obs.traceKindMask ^= 1; }},
        {"obs.traceLimit",
         [](SystemConfig &c) { c.obs.traceLimit += 1; }},
        {"obs.metricsInterval",
         [](SystemConfig &c) { c.obs.metricsInterval += 128; }},
    };
    const SystemConfig base;
    const std::uint64_t h0 = base.canonicalHash();
    for (const Knob &k : kKnobs) {
        SystemConfig c;
        k.mutate(c);
        EXPECT_NE(c.canonicalHash(), h0) << k.name;
    }
}

/** Value-based: re-assigning the default value is a no-op, and two
 *  paths to the same values hash identically. */
TEST(CanonicalHash, InvariantToDefaultedAssignments)
{
    const SystemConfig base;
    SystemConfig assigned;
    assigned.l0xBytes = base.l0xBytes;
    assigned.numTiles = base.numTiles;
    assigned.overlapInvocations = base.overlapInvocations;
    EXPECT_EQ(assigned.canonicalHash(), base.canonicalHash());

    auto a = SystemConfig::preset(SystemConfig::Preset::AxcLarge,
                                  SystemKind::Fusion);
    SystemConfig b;
    b.kind = SystemKind::Fusion;
    b.scratchpadBytes = 8 * 1024;
    b.l0xBytes = 8 * 1024;
    b.l1xBytes = 256 * 1024;
    EXPECT_EQ(a.canonicalHash(), b.canonicalHash());
}

// ---------------------------------------------------------------
// RunResult binary round trip.
// ---------------------------------------------------------------

RunResult
smallRun(SystemKind kind = SystemKind::Fusion)
{
    auto prog =
        core::buildProgram("fft", workloads::Scale::Small);
    SystemConfig cfg;
    cfg.kind = kind;
    return core::runProgram(cfg, *prog);
}

TEST(ResultSerde, RoundTripIsJsonIdentical)
{
    std::vector<RunResult> inputs;
    for (auto kind : {SystemKind::Scratch, SystemKind::Fusion,
                      SystemKind::Auto})
        inputs.push_back(smallRun(kind));
    // The real runs leave several counters at 0. Distinct nonzero
    // values catch two counters swapped on one side of the blob.
    RunResult hand;
    hand.workload = "hand-built";
    std::uint64_t v = 0;
    for (std::uint64_t *c :
         {&hand.l0xL1xCtrlMsgs, &hand.l0xL1xDataMsgs, &hand.l0xL1xFlits,
          &hand.l1xL2CtrlMsgs, &hand.l1xL2DataMsgs, &hand.l0xL0xDataMsgs,
          &hand.axTlbLookups, &hand.axRmapLookups, &hand.fwdsToTile,
          &hand.dmaOps, &hand.dmaBytes, &hand.workingSetBytes,
          &hand.l0xFills, &hand.l0xWritebacks, &hand.l0xForwards,
          &hand.l1xHits, &hand.l1xMisses})
        *c = ++v;
    inputs.push_back(hand);
    for (const RunResult &r : inputs) {
        RunResult out;
        std::string err;
        ASSERT_TRUE(core::deserializeResult(
            core::serializeResult(r), out, &err))
            << err;
        EXPECT_EQ(r.toJson(), out.toJson());
        // The perf block rides along bit-exactly, so warm --json
        // reports (which include perf) replay byte-identically.
        EXPECT_EQ(r.toJson(true), out.toJson(true));
    }
}

TEST(ResultSerde, CorruptImagesAreRejected)
{
    RunResult r = smallRun();
    const std::string image = core::serializeResult(r);
    RunResult out;
    EXPECT_FALSE(core::deserializeResult("", out));
    EXPECT_FALSE(core::deserializeResult(
        image.substr(0, image.size() / 2), out));
    EXPECT_FALSE(core::deserializeResult(image + "x", out));
    std::string bad = image;
    bad[bad.size() / 2] =
        static_cast<char>(bad[bad.size() / 2] ^ 0x10);
    EXPECT_FALSE(core::deserializeResult(bad, out));
}

// ---------------------------------------------------------------
// ResultCache disk behavior.
// ---------------------------------------------------------------

TEST(ResultCache, StoreLookupHitMissAndTouch)
{
    TempDir dir("rescache");
    ResultCache cache(dir.str());
    const CacheKey key{0x1234, 0x5678};
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
    RunResult r = smallRun();
    cache.store(key, r);
    EXPECT_EQ(cache.stats().stores, 1u);
    auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->toJson(true), r.toJson(true));
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ResultCache, CorruptEntryIsAMissAndIsDeleted)
{
    TempDir dir("rescorrupt");
    ResultCache cache(dir.str());
    const CacheKey key{1, 2};
    cache.store(key, smallRun());
    const std::string p = cache.path(key);
    ASSERT_TRUE(fs::exists(p));
    {
        std::ofstream f(p, std::ios::binary | std::ios::trunc);
        f << "not a result";
    }
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_FALSE(fs::exists(p)) << "corrupt entry not removed";
}

TEST(ResultCache, FailedResultsAreNeverStored)
{
    TempDir dir("resfail");
    ResultCache cache(dir.str());
    RunResult r = smallRun();
    guard::SimError e;
    e.category = guard::ErrorCategory::Internal;
    e.component = "test";
    r.error = std::move(e);
    cache.store({9, 9}, r);
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_FALSE(cache.lookup({9, 9}).has_value());
}

TEST(ResultCache, ByteCapEvictsOldestFirst)
{
    TempDir dir("resevict");
    RunResult r = smallRun();
    const std::uint64_t entry =
        core::serializeResult(r).size();
    // Room for ~2 entries; storing 4 must evict.
    ResultCache cache(dir.str(), 2 * entry + entry / 2);
    for (std::uint64_t i = 0; i < 4; ++i)
        cache.store({i, i}, r);
    EXPECT_GT(cache.stats().evictions, 0u);
    std::uint64_t total = 0;
    for (const auto &ent :
         fs::recursive_directory_iterator(dir.str()))
        if (ent.is_regular_file())
            total += ent.file_size();
    EXPECT_LE(total, cache.maxBytes());
    // The newest entry must have survived.
    EXPECT_TRUE(cache.lookup({3, 3}).has_value());
}

// ---------------------------------------------------------------
// Sweep integration.
// ---------------------------------------------------------------

std::vector<SweepJob>
smallJobs()
{
    std::vector<SweepJob> jobs;
    for (auto kind : {SystemKind::Scratch, SystemKind::Shared,
                      SystemKind::Fusion}) {
        SweepJob j;
        j.cfg.kind = kind;
        j.workload = "adpcm";
        j.scale = workloads::Scale::Small;
        j.tag = core::systemKindShortName(kind);
        jobs.push_back(std::move(j));
    }
    return jobs;
}

TEST(SweepCache, ColdThenWarmIsByteIdentical)
{
    TempDir dir("sweepcache");
    ResultCache cache(dir.str());
    auto jobs = smallJobs();

    SweepCacheStats cold, warm;
    SweepOptions so;
    so.jobs = 2;
    so.cache = &cache;
    so.cacheStats = &cold;
    auto r1 = runSweep(jobs, so);
    EXPECT_EQ(cold.misses, jobs.size());
    EXPECT_EQ(cold.hits, 0u);

    so.cacheStats = &warm;
    auto r2 = runSweep(jobs, so);
    EXPECT_EQ(warm.hits, jobs.size());
    EXPECT_EQ(warm.misses, 0u);
    EXPECT_EQ(reportJson("t", jobs, r1), reportJson("t", jobs, r2));
    // And both match a cache-free sweep: the cache may never change
    // what a sweep returns, only how fast it returns it.
    auto r3 = runSweep(jobs, {});
    EXPECT_EQ(reportJson("t", jobs, r1), reportJson("t", jobs, r3));
}

TEST(SweepCache, IdenticalJobsReturnIdenticalResults)
{
    TempDir dir("sweepidentical");
    ResultCache cache(dir.str());
    // Four byte-identical jobs on four workers: each is served from
    // the cache or simulated, and all four results agree.
    std::vector<SweepJob> jobs(4, smallJobs()[0]);
    SweepCacheStats stats;
    SweepOptions so;
    so.jobs = 4;
    so.cache = &cache;
    so.cacheStats = &stats;
    auto results = runSweep(jobs, so);
    EXPECT_EQ(stats.hits + stats.misses, 4u);
    for (std::size_t i = 1; i < results.size(); ++i)
        EXPECT_EQ(results[0].toJson(), results[i].toJson());
}

TEST(SweepCache, InstrumentedJobsBypassTheCache)
{
    TempDir dir("sweepbypass");
    ResultCache cache(dir.str());
    auto jobs = smallJobs();
    jobs[0].cfg.obs.trace = true; // telemetry => not cacheable
    // armed fault => not cacheable
    jobs[1].cfg.guard.schedule.arm(guard::FaultKind::DelayGrant,
                                   /*trigger_after=*/0, /*delay=*/8);
    SweepCacheStats stats;
    SweepOptions so;
    so.cache = &cache;
    so.cacheStats = &stats;
    (void)runSweep(jobs, so);
    // Only the untouched third job participates.
    EXPECT_EQ(stats.misses + stats.hits, 1u);
    (void)runSweep(jobs, so);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 0u);
}

TEST(SweepCache, LazyTransformMatchesEagerCopy)
{
    auto base = std::make_shared<const trace::Program>(
        *core::buildProgram("adpcm", workloads::Scale::Small));

    // Eager: mutate a copy up front, attach it to the job.
    auto eager = std::make_shared<trace::Program>(*base);
    for (auto &f : eager->functions)
        f.leaseTime *= 2;
    SweepJob je;
    je.workload = "adpcm";
    je.scale = workloads::Scale::Small;
    je.prog = eager;

    // Lazy: attach the base and express the mutation as a
    // transform; the engine applies it inside the worker.
    SweepJob jl = je;
    jl.prog = base;
    jl.transform = [](trace::Program &p) {
        for (auto &f : p.functions)
            f.leaseTime *= 2;
    };
    jl.transformId = fnv1a("test/lease-x2");

    auto re = runSweep({je}, {});
    auto rl = runSweep({jl}, {});
    EXPECT_EQ(re[0].toJson(), rl[0].toJson());

    // Distinct transforms on the same base must key distinct cache
    // entries: warm both and expect two independent hits.
    SweepJob j2 = jl;
    j2.transform = [](trace::Program &p) {
        for (auto &f : p.functions)
            f.leaseTime *= 4;
    };
    j2.transformId = fnv1a("test/lease-x4");
    TempDir dir("sweeptransform");
    ResultCache cache(dir.str());
    SweepCacheStats stats;
    SweepOptions so;
    so.cache = &cache;
    so.cacheStats = &stats;
    (void)runSweep({jl, j2}, so);
    EXPECT_EQ(stats.misses, 2u);
    (void)runSweep({jl, j2}, so);
    EXPECT_EQ(stats.hits, 2u);
}

// ---------------------------------------------------------------
// Warm path over an armed trace store.
// ---------------------------------------------------------------

/** Arms the global trace store for one test's lifetime. */
class ArmedStore
{
  public:
    explicit ArmedStore(const std::string &dir)
    {
        trace::setGlobalStoreDir(dir);
    }
    ~ArmedStore() { trace::setGlobalStoreDir(""); }
    ArmedStore(const ArmedStore &) = delete;
    ArmedStore &operator=(const ArmedStore &) = delete;
};

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

std::string
storedPath(const std::string &workload)
{
    return trace::globalStore()->path(workload,
                                      workloads::Scale::Small);
}

/** Several workloads x kinds, Small scale. */
std::vector<SweepJob>
mixedJobs()
{
    std::vector<SweepJob> jobs;
    for (const char *w : {"adpcm", "filter", "fft"}) {
        for (SweepJob j : smallJobs()) {
            j.workload = w;
            j.tag = std::string(w) + "/" + j.tag;
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

TEST(SweepCache, WarmSweepOverStoredTracesBuildsNoProgram)
{
    TempDir traces("warmtraces"), results("warmresults");
    ArmedStore armed(traces.str());
    ResultCache cache(results.str());
    const auto jobs = mixedJobs();

    SweepCacheStats cold, warm;
    SweepOptions so;
    so.jobs = 4;
    so.cache = &cache;
    so.cacheStats = &cold;
    auto r1 = runSweep(jobs, so);
    EXPECT_EQ(cold.misses, jobs.size());
    EXPECT_EQ(cold.programsBuilt, 3u);

    // The invariant warm keys rest on: a stored trace's verified
    // envelope hash is programHash() of the program it decodes to.
    for (const char *w : {"adpcm", "filter", "fft"}) {
        auto st = trace::globalStore()->open(w, workloads::Scale::Small);
        ASSERT_TRUE(st.has_value()) << w;
        auto prog = st->decode();
        ASSERT_TRUE(prog.has_value()) << w;
        EXPECT_EQ(st->hash, trace::programHash(*prog)) << w;
    }

    so.cacheStats = &warm;
    auto r2 = runSweep(jobs, so);
    EXPECT_EQ(warm.hits, jobs.size());
    EXPECT_EQ(warm.misses, 0u);
    EXPECT_EQ(warm.programsBuilt, 0u);
    const std::string report = reportJson("t", jobs, r1);
    EXPECT_EQ(report, reportJson("t", jobs, r2));
    SweepOptions plain;
    plain.jobs = 4;
    EXPECT_EQ(report, reportJson("t", jobs, runSweep(jobs, plain)));
}

TEST(SweepCache, CorruptStoredTraceIsRegeneratedAndStillHits)
{
    TempDir traces("corrupttraces"), results("corruptresults");
    ArmedStore armed(traces.str());
    ResultCache cache(results.str());
    const auto jobs = smallJobs();

    SweepCacheStats cold, warm;
    SweepOptions so;
    so.jobs = 4;
    so.cache = &cache;
    so.cacheStats = &cold;
    auto r1 = runSweep(jobs, so);
    const std::string file = storedPath("adpcm");
    auto recorded =
        trace::globalStore()->open("adpcm", workloads::Scale::Small);
    ASSERT_TRUE(recorded.has_value());

    std::string bytes = readBytes(file);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
    writeBytes(file, bytes);
    ASSERT_FALSE(trace::globalStore()
                     ->open("adpcm", workloads::Scale::Small)
                     .has_value());

    // The flipped file fails its envelope, so the program is
    // regenerated; its hash is the one the cold pass stored under.
    so.cacheStats = &warm;
    auto r2 = runSweep(jobs, so);
    EXPECT_EQ(warm.hits, jobs.size());
    EXPECT_EQ(warm.misses, 0u);
    EXPECT_EQ(warm.programsBuilt, 1u);
    EXPECT_EQ(reportJson("t", jobs, r1), reportJson("t", jobs, r2));

    // ...and recorded over the corrupt file.
    auto rerecorded =
        trace::globalStore()->open("adpcm", workloads::Scale::Small);
    ASSERT_TRUE(rerecorded.has_value());
    EXPECT_EQ(rerecorded->hash, recorded->hash);
}

TEST(SweepCache, UndecodableStoredTraceNeverKeysAResult)
{
    TempDir traces("garbagetraces"), results("garbageresults");
    ArmedStore armed(traces.str());
    ResultCache cache(results.str());
    const auto jobs = smallJobs();

    // An intact envelope around a payload that does not decode.
    const std::string garbage = "not a trace payload";
    const std::uint64_t garbageHash = fnv1a(garbage);
    const std::string file = storedPath("adpcm");
    auto plant = [&] {
        writeBytes(file, wire::wrapPayload("FTRC",
                                           trace::kTraceFormatVersion,
                                           garbage));
        auto st = trace::globalStore()->open("adpcm",
                                             workloads::Scale::Small);
        ASSERT_TRUE(st.has_value());
        EXPECT_EQ(st->hash, garbageHash);
        EXPECT_FALSE(st->decode().has_value());
    };
    auto expectNothingUnderGarbage = [&] {
        for (const SweepJob &j : jobs)
            EXPECT_FALSE(fs::exists(
                cache.path({j.cfg.canonicalHash(), garbageHash})))
                << j.tag;
    };

    // Cold cache: every job misses, and its result goes under the
    // regenerated program's hash, never the image's.
    plant();
    SweepCacheStats cold, warm;
    SweepOptions so;
    so.jobs = 4;
    so.cache = &cache;
    so.cacheStats = &cold;
    auto r1 = runSweep(jobs, so);
    EXPECT_EQ(cold.misses, jobs.size());
    EXPECT_EQ(cold.programsBuilt, 1u);
    expectNothingUnderGarbage();
    auto rerecorded =
        trace::globalStore()->open("adpcm", workloads::Scale::Small);
    ASSERT_TRUE(rerecorded.has_value());
    EXPECT_NE(rerecorded->hash, garbageHash);

    // Warm cache: the image's identity misses, and the re-probe
    // under the regenerated program's hash hits.
    plant();
    so.cacheStats = &warm;
    auto r2 = runSweep(jobs, so);
    EXPECT_EQ(warm.hits, jobs.size());
    EXPECT_EQ(warm.misses, 0u);
    EXPECT_EQ(warm.programsBuilt, 1u);
    expectNothingUnderGarbage();

    const std::string report = reportJson("t", jobs, r1);
    EXPECT_EQ(report, reportJson("t", jobs, r2));
    EXPECT_EQ(report, reportJson("t", jobs, runSweep(jobs, {})));
}

std::atomic<int> g_stubBuilds{0};

/** A registered workload that replays adpcm's kernels. */
class StubWorkload : public workloads::Workload
{
  public:
    std::string name() const override { return "stub"; }
    std::string displayName() const override { return "STUB"; }
    trace::Program
    build(workloads::Scale scale) const override
    {
        ++g_stubBuilds;
        return workloads::makeWorkload("adpcm")->build(scale);
    }
};

std::unique_ptr<workloads::Workload>
makeStub()
{
    return std::make_unique<StubWorkload>();
}

TEST(SweepCache, RegisteredWorkloadNeverConsultsTheStore)
{
    TempDir traces("stubtraces"), results("stubresults");
    ArmedStore armed(traces.str());
    ResultCache cache(results.str());
    workloads::registerWorkload("stub", &makeStub);

    // A valid trace of a different program under the stub's key: a
    // replay would simulate fft instead of the stub's own build.
    const std::string file = storedPath("stub");
    const std::string planted = trace::serializeProgram(
        *core::buildProgram("fft", workloads::Scale::Small));
    writeBytes(file, planted);
    ASSERT_TRUE(trace::globalStore()
                    ->open("stub", workloads::Scale::Small)
                    .has_value());
    EXPECT_FALSE(workloads::storedTrace("stub", workloads::Scale::Small)
                     .has_value());

    auto jobs = smallJobs();
    for (SweepJob &j : jobs)
        j.workload = "stub";
    g_stubBuilds = 0;
    SweepCacheStats cold, warm;
    SweepOptions so;
    so.jobs = 4;
    so.cache = &cache;
    so.cacheStats = &cold;
    auto r1 = runSweep(jobs, so);
    so.cacheStats = &warm;
    auto r2 = runSweep(jobs, so);
    // Each sweep builds the stub (its identity needs the program);
    // the warm one is still served entirely from the result cache.
    EXPECT_EQ(g_stubBuilds.load(), 2);
    EXPECT_EQ(cold.programsBuilt, 1u);
    EXPECT_EQ(warm.programsBuilt, 1u);
    EXPECT_EQ(warm.hits, jobs.size());
    EXPECT_EQ(readBytes(file), planted) << "stub trace was recorded";

    // The results are the stub's own program's, not the planted one.
    auto own = std::make_shared<const trace::Program>(
        StubWorkload().build(workloads::Scale::Small));
    auto attached = jobs;
    for (SweepJob &j : attached)
        j.prog = own;
    const std::string report = reportJson("t", jobs, r1);
    EXPECT_EQ(report, reportJson("t", jobs, r2));
    EXPECT_EQ(report, reportJson("t", jobs, runSweep(attached, {})));
    workloads::registerWorkload("stub", nullptr);

    // Registering over a built-in name keeps the built-in kernels
    // (built-in names win) but takes the name off the replay seam.
    workloads::registerWorkload("adpcm", &makeStub);
    writeBytes(storedPath("adpcm"), planted);
    EXPECT_FALSE(
        workloads::storedTrace("adpcm", workloads::Scale::Small)
            .has_value());
    const auto adpcmJobs = smallJobs();
    const std::string overridden =
        reportJson("t", adpcmJobs, runSweep(adpcmJobs, {}));
    EXPECT_EQ(readBytes(storedPath("adpcm")), planted)
        << "overridden built-in was recorded";
    workloads::registerWorkload("adpcm", nullptr);

    auto builtIn = std::make_shared<const trace::Program>(
        workloads::makeWorkload("adpcm")->build(
            workloads::Scale::Small));
    auto builtInJobs = adpcmJobs;
    for (SweepJob &j : builtInJobs)
        j.prog = builtIn;
    EXPECT_EQ(overridden,
              reportJson("t", adpcmJobs, runSweep(builtInJobs, {})));
}

TEST(SweepCache, LazyTransformOnNamedWorkloadHitsWithoutBuilding)
{
    TempDir traces("lazytraces"), results("lazyresults");
    ArmedStore armed(traces.str());
    ResultCache cache(results.str());
    SweepJob named = smallJobs()[2];
    named.transform = [](trace::Program &p) {
        for (auto &f : p.functions)
            f.leaseTime *= 2;
    };
    named.transformId = fnv1a("test/lease-x2");
    const std::vector<SweepJob> jobs = {named, smallJobs()[2]};

    SweepCacheStats cold, warm, twin;
    SweepOptions so;
    so.cache = &cache;
    so.cacheStats = &cold;
    auto r1 = runSweep(jobs, so);
    EXPECT_EQ(cold.misses, 2u);
    so.cacheStats = &warm;
    auto r2 = runSweep(jobs, so);
    EXPECT_EQ(warm.hits, 2u);
    EXPECT_EQ(warm.programsBuilt, 0u);
    EXPECT_EQ(reportJson("t", jobs, r1), reportJson("t", jobs, r2));

    // The key does not depend on whether the base program is built
    // by the engine or attached: the attached twin hits the entry.
    SweepJob attached = named;
    attached.prog = std::make_shared<const trace::Program>(
        *core::buildProgram("adpcm", workloads::Scale::Small));
    so.cacheStats = &twin;
    auto r3 = runSweep({attached}, so);
    EXPECT_EQ(twin.hits, 1u);
    EXPECT_EQ(twin.programsBuilt, 0u);
    EXPECT_EQ(r3[0].toJson(), r1[0].toJson());
}

} // namespace
} // namespace fusion::sweep
