/**
 * @file
 * Determinism anchor for the simulator's serialized output: the
 * RunResult of every static system kind, of AUTO, and of a few
 * non-default configurations (multi-tile, overlapped invocations,
 * guard and fault injection armed, interval metrics armed) must stay
 * byte-identical to the recorded FNV-1a goldens below. The
 * static-kind rows were recorded from the seed tree immediately
 * before the TileFrontend refactor; the rest as noted per group. A
 * mismatch means a change perturbed construction order,
 * stat naming, or scheduling — not just "a number moved".
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/runner.hh"
#include "core/system.hh"
#include "sim/hash.hh"

namespace fusion::core
{
namespace
{

/** A named change applied to the paper preset before the run. */
struct Tweak
{
    const char *name;
    void (*apply)(SystemConfig &);
};

struct GoldenRun
{
    const char *workload;
    SystemKind kind;
    std::uint64_t hash;
    const Tweak *tweak = nullptr; ///< nullptr: the plain preset
};

// Interval metrics armed: toJson() then carries the "metrics" series
// (every registered gauge and counter column) and the "latency"
// percentiles harvested from the stats histograms.
constexpr Tweak kMetrics{
    "metrics", [](SystemConfig &c) { c.obs.metricsInterval = 512; }};

constexpr Tweak kTwoTiles{
    "2tiles", [](SystemConfig &c) { c.numTiles = 2; }};

constexpr Tweak kTwoTilesOverlap{
    "2tilesOverlap", [](SystemConfig &c) {
        c.numTiles = 2;
        c.overlapInvocations = true;
    }};

// The only row whose messages go through Link::sendTracked.
constexpr Tweak kGuardFaults{
    "guardFaults", [](SystemConfig &c) {
        c.guard.noProgressTicks = 1u << 20;
        c.guard.invariantPeriod = 256;
        c.guard.invariantsAtEnd = true;
        c.guard.schedule.arm(guard::FaultKind::DelayGrant,
                             /*trigger_after=*/2, /*delay=*/7);
        c.guard.schedule.arm(guard::FaultKind::ReorderFlit,
                             /*trigger_after=*/5, /*delay=*/4);
    }};

// Recorded from the seed (pre-TileFrontend) tree:
//   fnv1a(runProgram(SystemConfig::preset(SystemConfig::Preset::Paper, kind),
//                    *core::buildProgram(workload, Scale::Small)).toJson())
//
// Re-recorded once when the hash moved to the shared sim/hash.hh:
// this test's original inline FNV-1a used a typo'd offset basis
// (1469598103934665603, missing the trailing 7 of the standard
// 14695981039346656037), so the raw hash values changed. The JSON
// itself was diffed byte-for-byte against the pre-change tree at
// re-recording time; only the fingerprint function changed.
constexpr GoldenRun kGolden[] = {
    {"adpcm", SystemKind::Scratch, 0x1bba9d6b40bb1ab6ull},
    {"adpcm", SystemKind::Shared, 0xfa9a5be0efc3bc28ull},
    {"adpcm", SystemKind::Fusion, 0x1a347ff1a26fe836ull},
    {"adpcm", SystemKind::FusionDx, 0xc95af23ffe0520ecull},
    {"adpcm", SystemKind::FusionMesi, 0x925e020e271469e6ull},
    {"fft", SystemKind::Scratch, 0x1f97641d79106d60ull},
    {"fft", SystemKind::Shared, 0xcde45be1efbc3eeeull},
    {"fft", SystemKind::Fusion, 0x925524a955ad6982ull},
    {"fft", SystemKind::FusionDx, 0xa7f0c91b66dcb75full},
    {"fft", SystemKind::FusionMesi, 0xd7ce3d45a5dcf76aull},
    {"histogram", SystemKind::Scratch, 0x454f9c6e782acc6eull},
    {"histogram", SystemKind::Shared, 0x730d1ff0eeb3b96eull},
    {"histogram", SystemKind::Fusion, 0x53f5fe959937b5e9ull},
    {"histogram", SystemKind::FusionDx, 0xd91e902178bbe57dull},
    {"histogram", SystemKind::FusionMesi, 0x81a169fd53c6d113ull},
    // Recorded from the tree just before the multi-domain event
    // kernel was deleted. disparity, not fft, pins overlap: fft has no
    // independent invocations, so the flag changes nothing there.
    {"fft", SystemKind::Fusion, 0x13d3b33e3b32308cull, &kTwoTiles},
    {"fft", SystemKind::FusionDx, 0xf0f718458d35c662ull, &kTwoTiles},
    {"disparity", SystemKind::Fusion, 0x7b55edef7b9eb277ull,
     &kTwoTilesOverlap},
    {"adpcm", SystemKind::Fusion, 0xe2d42a2a06fa7350ull,
     &kGuardFaults},
    {"adpcm", SystemKind::Auto, 0xb14cf3f48f52e10eull},
    {"fft", SystemKind::Auto, 0x4eb7a8e1885e2c64ull},
    {"histogram", SystemKind::Auto, 0xebfa93878b683735ull},
    // Recorded from the tree just before counters moved from
    // stats::Scalar into component members. Each pins a column the
    // move could shift silently: SHARED's l1x.misses (upgrades
    // included), SCRATCH's dma.line_transfers and chunk latency,
    // FUSION-Dx's per-L0X miss sums after forwards, and AUTO's
    // same-path merges plus the orch.* columns.
    {"adpcm", SystemKind::Shared, 0x8c92448b3f5b0b4cull, &kMetrics},
    {"adpcm", SystemKind::Scratch, 0x2d99e8d3a07d0c28ull, &kMetrics},
    {"fft", SystemKind::FusionDx, 0x03d855c2cdb9ac7dull, &kMetrics},
    {"fft", SystemKind::FusionMesi, 0x1df26685cf0cf691ull,
     &kMetrics},
    // Re-recorded when AUTO stopped building SHARED and FUSION-MESI
    // (was 0x8f57dd8c9b70fd00). The JSON differs from the previous
    // recording only by the 21 metrics series those two registered
    // (78 -> 57), each zero in every row; every kept series is
    // identical in order and value, and "latency" is identical.
    {"histogram", SystemKind::Auto, 0xaf977bcefd8f6724ull,
     &kMetrics},
    // Recorded from the tree just before AUTO's policy framework
    // folded into the orchestrator's one rule, and before FUSION-Dx
    // resolved its forward plan once per run: the workloads the rows
    // above leave out for either kind.
    {"disparity", SystemKind::Auto, 0x0adb6602a1bbfc48ull},
    {"tracking", SystemKind::Auto, 0x55aaa605983fd815ull},
    {"susan", SystemKind::Auto, 0x1d3a79b6d65b179cull},
    {"filter", SystemKind::Auto, 0x95328dff5bc93493ull},
    {"disparity", SystemKind::FusionDx, 0x0403243217196ddcull},
    {"tracking", SystemKind::FusionDx, 0x9ee07df7558f354bull},
};

class FrontendEquivalence
    : public ::testing::TestWithParam<GoldenRun>
{
};

TEST_P(FrontendEquivalence, JsonByteIdenticalToSeed)
{
    const GoldenRun &g = GetParam();
    trace::Program p =
        *core::buildProgram(g.workload, workloads::Scale::Small);
    SystemConfig cfg =
        SystemConfig::preset(SystemConfig::Preset::Paper, g.kind);
    if (g.tweak != nullptr)
        g.tweak->apply(cfg);
    RunResult r = runProgram(cfg, p);
    EXPECT_EQ(fnv1a(r.toJson()), g.hash)
        << "serialized output for " << g.workload << "/"
        << systemKindName(g.kind)
        << (g.tweak != nullptr ? "/" : "")
        << (g.tweak != nullptr ? g.tweak->name : "")
        << " diverged from the recorded golden";
}

INSTANTIATE_TEST_SUITE_P(
    Golden, FrontendEquivalence, ::testing::ValuesIn(kGolden),
    [](const auto &info) {
        std::string name = info.param.workload;
        name += "_";
        for (const char *c = systemKindName(info.param.kind); *c;
             ++c) {
            if ((*c >= 'A' && *c <= 'Z') ||
                (*c >= 'a' && *c <= 'z') ||
                (*c >= '0' && *c <= '9'))
                name += *c;
        }
        if (info.param.tweak != nullptr) {
            name += "_";
            name += info.param.tweak->name;
        }
        return name;
    });

// The deprecated paperDefault/axcLarge forwarders were removed once
// every call site moved to SystemConfig::preset (DESIGN.md
// changelog records the removal, static_assert-style: code that
// still names them now fails to compile rather than silently
// diverging from the factory).

} // namespace
} // namespace fusion::core
