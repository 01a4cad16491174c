/**
 * @file
 * Trace store (src/trace/store.*) tests: byte-exact round trips for
 * every workload and scale the sweeps use, RunResult byte-identity
 * between fresh and replayed programs, on-disk TraceStore behavior,
 * and — the hardening half — corruption robustness: truncated,
 * bit-flipped and randomly mutated file images must load as a clean
 * failure, never a crash or a silently wrong program
 * (docs/HARDENING.md "corrupt artifacts degrade to misses").
 *
 * The seeded-mutation suite is registered with ctest as
 * TraceStoreFuzzSmoke so sanitizer configurations can run exactly
 * it: ctest --test-dir build-asan -R TraceStoreFuzz
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <unistd.h>

#include "core/runner.hh"
#include "sim/rng.hh"
#include "trace/recorder.hh"
#include "trace/store.hh"
#include "workloads/workload.hh"

namespace fusion::trace
{
namespace
{

namespace fs = std::filesystem;

/** Fresh private directory under the system temp dir. */
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
    const fs::path &path() const { return _path; }

  private:
    fs::path _path;
};

Program
build(const std::string &name,
      workloads::Scale scale = workloads::Scale::Small)
{
    auto p = core::buildProgram(name, scale);
    EXPECT_TRUE(p.has_value()) << name;
    return std::move(*p);
}

// ---------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------

/** serialize -> deserialize reproduces the payload byte for byte
 *  for every workload at the scales the sweeps run. */
TEST(TraceStore, RoundTripAllWorkloadsAllScales)
{
    for (const auto &name : workloads::workloadNames()) {
        for (auto scale :
             {workloads::Scale::Small, workloads::Scale::Paper}) {
            Program prog = build(name, scale);
            const std::string image = serializeProgram(prog);
            Program out;
            std::string err;
            ASSERT_TRUE(deserializeProgram(image, out, &err))
                << name << ": " << err;
            // Payload identity implies full structural identity:
            // the payload encodes every field the simulator reads.
            EXPECT_EQ(serializeProgramPayload(prog),
                      serializeProgramPayload(out))
                << name << "@"
                << workloads::scaleName(scale);
            EXPECT_EQ(prog.name, out.name);
            EXPECT_EQ(prog.functions.size(), out.functions.size());
            EXPECT_EQ(prog.invocations.size(),
                      out.invocations.size());
            EXPECT_EQ(programHash(prog), programHash(out));
        }
    }
}

/** The 16-byte op keeps every field's full range through the
 *  recorder and the codec: compute counts at their maximum (packed
 *  into the address word), a load above 2^47 and a store of the
 *  largest size. */
TEST(TraceStore, ExtremeOpsRoundTrip)
{
    constexpr std::uint32_t kMax =
        std::numeric_limits<std::uint32_t>::max();
    const Addr high = (Addr{1} << 47) + (Addr{1} << 40) + 0x48;
    Recorder rec("extreme");
    const FuncId f = rec.addFunction({"f", 0, 2, 500});
    rec.beginInvocation(f);
    rec.intOps(kMax);
    rec.fpOps(kMax);
    rec.load(high, 8);
    rec.store(0x1000, kMax);
    rec.end();
    Program prog = rec.take();
    ASSERT_EQ(prog.invocations[0].ops.size(), 3u);

    Program out;
    std::string err;
    ASSERT_TRUE(deserializeProgram(serializeProgram(prog), out, &err))
        << err;
    EXPECT_EQ(programHash(out), programHash(prog));
    for (const Program *p : {&prog, &out}) {
        const auto &ops = p->invocations[0].ops;
        ASSERT_EQ(ops.size(), 3u);
        EXPECT_EQ(ops[0].kind, OpKind::Compute);
        EXPECT_EQ(ops[0].intOps(), kMax);
        EXPECT_EQ(ops[0].fpOps(), kMax);
        EXPECT_EQ(ops[1].kind, OpKind::Load);
        EXPECT_EQ(ops[1].addr, high);
        EXPECT_EQ(ops[1].size, 8u);
        EXPECT_EQ(ops[2].kind, OpKind::Store);
        EXPECT_EQ(ops[2].addr, 0x1000u);
        EXPECT_EQ(ops[2].size, kMax);
    }
}

/** A replayed program simulates to byte-identical JSON on both
 *  config presets the paper evaluates. */
TEST(TraceStore, ReplayedProgramSimulatesIdentically)
{
    using core::SystemConfig;
    Program fresh = build("fft", workloads::Scale::Small);
    Program replayed;
    ASSERT_TRUE(
        deserializeProgram(serializeProgram(fresh), replayed));
    for (auto preset : {SystemConfig::Preset::Paper,
                        SystemConfig::Preset::AxcLarge}) {
        auto cfg = SystemConfig::preset(
            preset, core::SystemKind::Fusion);
        EXPECT_EQ(core::runProgram(cfg, fresh).toJson(),
                  core::runProgram(cfg, replayed).toJson())
            << core::presetName(preset);
    }
}

/** Any content difference moves programHash. */
TEST(TraceStore, HashTracksContent)
{
    Program prog = build("adpcm");
    const std::uint64_t h = programHash(prog);
    Program leased = prog;
    ASSERT_FALSE(leased.functions.empty());
    leased.functions[0].leaseTime += 1;
    EXPECT_NE(programHash(leased), h);
    Program renamed = prog;
    renamed.name += "x";
    EXPECT_NE(programHash(renamed), h);
    ASSERT_FALSE(prog.invocations.empty());
    ASSERT_FALSE(prog.invocations[0].ops.empty());
    Program reop = prog;
    reop.invocations[0].ops[0].addr ^= 0x40;
    EXPECT_NE(programHash(reop), h);
}

// ---------------------------------------------------------------
// On-disk store.
// ---------------------------------------------------------------

TEST(TraceStore, StoreAndLoad)
{
    TempDir dir("store");
    TraceStore store(dir.path().string());
    Program prog = build("susan");
    store.store("susan", workloads::Scale::Small, prog);
    ASSERT_TRUE(
        fs::exists(store.path("susan", workloads::Scale::Small)));
    auto loaded = store.load("susan", workloads::Scale::Small);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(serializeProgramPayload(prog),
              serializeProgramPayload(*loaded));
    // Other keys are independent misses.
    EXPECT_FALSE(
        store.load("susan", workloads::Scale::Paper).has_value());
    EXPECT_FALSE(
        store.load("fft", workloads::Scale::Small).has_value());
}

TEST(TraceStore, GlobalStoreRecordsThenReplays)
{
    TempDir dir("global");
    setGlobalStoreDir(dir.path().string());
    ASSERT_NE(globalStore(), nullptr);
    // First build records...
    Program first = build("adpcm");
    ASSERT_TRUE(fs::exists(globalStore()->path(
        "adpcm", workloads::Scale::Small)));
    // ...second build replays the identical program.
    Program second = build("adpcm");
    EXPECT_EQ(serializeProgramPayload(first),
              serializeProgramPayload(second));
    setGlobalStoreDir("");
    EXPECT_EQ(globalStore(), nullptr);
}

// ---------------------------------------------------------------
// Corruption robustness.
// ---------------------------------------------------------------

TEST(TraceStore, TruncationAtEveryPrefixFailsCleanly)
{
    Program prog = build("adpcm");
    const std::string image = serializeProgram(prog);
    // Every strict prefix must fail; stride keeps runtime sane on
    // the larger images while still covering the envelope borders.
    const std::size_t stride =
        image.size() > 4096 ? 97 : 1;
    for (std::size_t n = 0; n < image.size(); n += stride) {
        Program out;
        EXPECT_FALSE(
            deserializeProgram(image.substr(0, n), out))
            << "prefix " << n;
    }
}

TEST(TraceStore, BitFlipsAndTrailingGarbageFailCleanly)
{
    Program prog = build("adpcm");
    const std::string image = serializeProgram(prog);
    for (std::size_t pos :
         {std::size_t{0}, std::size_t{5}, image.size() / 2,
          image.size() - 1}) {
        std::string bad = image;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
        Program out;
        EXPECT_FALSE(deserializeProgram(bad, out))
            << "flip at " << pos;
    }
    Program out;
    EXPECT_FALSE(deserializeProgram(image + "tail", out));
    EXPECT_FALSE(deserializeProgram("", out));
    EXPECT_FALSE(deserializeProgram("FTRC", out));
}

TEST(TraceStore, CorruptFileOnDiskIsAMiss)
{
    TempDir dir("corrupt");
    TraceStore store(dir.path().string());
    Program prog = build("fft");
    store.store("fft", workloads::Scale::Small, prog);
    const std::string p =
        store.path("fft", workloads::Scale::Small);
    // Truncate the stored file to half size.
    std::string image;
    {
        std::ifstream in(p, std::ios::binary);
        image.assign(std::istreambuf_iterator<char>(in), {});
    }
    {
        std::ofstream outf(p,
                           std::ios::binary | std::ios::trunc);
        outf.write(image.data(),
                   static_cast<std::streamsize>(image.size() / 2));
    }
    EXPECT_FALSE(
        store.load("fft", workloads::Scale::Small).has_value());
}

/**
 * Seeded random-mutation fuzz: 64 mutated images per op must either
 * decode (a mutation can land in slack the hash does not cover —
 * it cannot, since the hash covers the whole payload, but the
 * contract is "no crash", not "always reject") or fail cleanly.
 * Under ASan/TSan/UBSan this is the memory-safety anchor for the
 * whole decode path. Registered with ctest as TraceStoreFuzzSmoke.
 */
TEST(TraceStoreFuzz, SeededMutationsNeverCrash)
{
    Program prog = build("adpcm");
    const std::string image = serializeProgram(prog);
    Rng rng(0xf00dfeedu);
    int rejected = 0;
    for (int i = 0; i < 64; ++i) {
        std::string bad = image;
        // 1-8 mutations: byte flips, overwrites, truncations and
        // small insertions, like a torn or bit-rotted artifact.
        const int edits = 1 + static_cast<int>(rng.below(8));
        for (int e = 0; e < edits && !bad.empty(); ++e) {
            const std::size_t pos = rng.below(bad.size());
            switch (rng.below(4)) {
              case 0:
                bad[pos] = static_cast<char>(
                    bad[pos] ^
                    static_cast<char>(1u << rng.below(8)));
                break;
              case 1:
                bad[pos] =
                    static_cast<char>(rng.below(256));
                break;
              case 2:
                bad.resize(pos);
                break;
              default:
                bad.insert(pos, 1,
                           static_cast<char>(rng.below(256)));
                break;
            }
        }
        Program out;
        std::string err;
        if (!deserializeProgram(bad, out, &err))
            ++rejected;
    }
    // The envelope hash makes accidental acceptance essentially
    // impossible; every mutated image should have been rejected.
    EXPECT_EQ(rejected, 64);
}

} // namespace
} // namespace fusion::trace
