/**
 * @file
 * End-to-end integration tests: whole programs on all four system
 * organizations, plus cross-system invariants.
 */

#include <gtest/gtest.h>

#include "core/reporters.hh"
#include "core/runner.hh"
#include "core/system.hh"

namespace fusion::core
{
namespace
{

trace::Program
smallProgram(const char *name = "adpcm")
{
    return *core::buildProgram(name, workloads::Scale::Small);
}

class AllSystems : public ::testing::TestWithParam<SystemKind>
{
};

TEST_P(AllSystems, RunsToCompletion)
{
    trace::Program p = smallProgram();
    RunResult r = runProgram(SystemConfig::preset(SystemConfig::Preset::Paper, GetParam()),
                             p);
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_GT(r.accelCycles, 0u);
    EXPECT_GT(r.totalPj(), 0.0);
    EXPECT_EQ(r.workload, "adpcm");
    EXPECT_EQ(r.kind, GetParam());
    // Both functions ran.
    EXPECT_EQ(r.funcCycles.size(), 2u);
    EXPECT_GT(r.funcCycles.at("coder"), 0u);
    EXPECT_GT(r.funcCycles.at("decoder"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllSystems,
    ::testing::Values(SystemKind::Scratch, SystemKind::Shared,
                      SystemKind::Fusion, SystemKind::FusionDx),
    [](const auto &info) {
        return std::string(systemKindName(info.param)) == "FUSION-Dx"
                   ? std::string("FusionDx")
                   : std::string(systemKindName(info.param));
    });

/** Every stats path exists from construction on: components bind
 *  their counters and histograms in their constructors and run()
 *  only bumps members, so a run never adds a path. */
TEST(SystemIntegration, StatsPathsAreFixedAtConstruction)
{
    trace::Program p = smallProgram("fft");
    std::vector<SystemKind> kinds(std::begin(kStaticSystemKinds),
                                  std::end(kStaticSystemKinds));
    kinds.push_back(SystemKind::Auto);
    for (SystemKind k : kinds) {
        SCOPED_TRACE(systemKindName(k));
        System sys(SystemConfig::preset(SystemConfig::Preset::Paper, k),
                   p);
        const stats::Registry &st = sys.ctx().stats;
        std::vector<std::string> built = st.paths();
        RunResult r = sys.run();
        EXPECT_EQ(st.paths(), built);
        // The host core replays both host phases through the same
        // core as the accelerators, under "host.core".
        std::uint64_t host_mem_ops = 0;
        for (const auto *ops : {&p.hostInit, &p.hostFinal}) {
            for (const auto &op : *ops) {
                if (op.kind != trace::OpKind::Compute)
                    ++host_mem_ops;
            }
        }
        EXPECT_EQ(st.value("host.core.loads") +
                      st.value("host.core.stores"),
                  host_mem_ops);
        if (k == SystemKind::Auto) {
            // Same-path entries sum over FUSION's and FUSION-Dx's
            // L1Xs, while each frontend reports only its own events.
            EXPECT_EQ(st.value("l1x.hits"), r.l1xHits);
            EXPECT_EQ(st.value("l1x.misses"), r.l1xMisses);
        }
    }
}

/** AUTO builds only the organizations its rule can pick (SCRATCH,
 *  FUSION, FUSION-Dx): no path that only SHARED or FUSION-MESI
 *  registers exists in an AUTO system. */
TEST(SystemIntegration, AutoBuildsOnlyTheModesItPicks)
{
    trace::Program p = smallProgram("fft");
    auto preset = [](SystemKind k) {
        return SystemConfig::preset(SystemConfig::Preset::Paper, k);
    };
    System shared(preset(SystemKind::Shared), p);
    System mesi(preset(SystemKind::FusionMesi), p);
    System autos(preset(SystemKind::Auto), p);
    EXPECT_TRUE(shared.ctx().stats.has("l1x.upgrades"));
    EXPECT_TRUE(mesi.ctx().stats.has("l1x.probes_sent"));
    EXPECT_TRUE(mesi.ctx().stats.has("axc0.l0x.probes"));
    for (const char *path :
         {"l1x.upgrades", "l1x.probes_sent", "axc0.l0x.probes"})
        EXPECT_FALSE(autos.ctx().stats.has(path)) << path;
    EXPECT_TRUE(autos.ctx().stats.has("l1x.hits"));
}

/** The footprint the constructor counts while it maps the pages is
 *  the trace analysis' footprint, for every workload and kind. */
TEST(SystemIntegration, WorkingSetIsTheTraceFootprint)
{
    std::vector<SystemKind> kinds(std::begin(kStaticSystemKinds),
                                  std::end(kStaticSystemKinds));
    kinds.push_back(SystemKind::Auto);
    for (const std::string &name : workloads::workloadNames()) {
        trace::Program p = smallProgram(name.c_str());
        const std::uint64_t bytes =
            trace::footprintLines(p) * kLineBytes;
        for (SystemKind k : kinds) {
            RunResult r = runProgram(
                SystemConfig::preset(SystemConfig::Preset::Paper, k), p);
            EXPECT_EQ(r.workingSetBytes, bytes)
                << name << "/" << systemKindName(k);
        }
    }
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    trace::Program p = smallProgram();
    RunResult a = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), p);
    RunResult b = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), p);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_DOUBLE_EQ(a.totalPj(), b.totalPj());
    EXPECT_EQ(a.l0xL1xCtrlMsgs, b.l0xL1xCtrlMsgs);
}

TEST(SystemIntegration, OnlyScratchUsesDma)
{
    trace::Program p = smallProgram();
    for (auto k : {SystemKind::Scratch, SystemKind::Shared,
                   SystemKind::Fusion}) {
        RunResult r = runProgram(SystemConfig::preset(SystemConfig::Preset::Paper, k), p);
        if (k == SystemKind::Scratch) {
            EXPECT_GT(r.dmaOps, 0u);
            EXPECT_GT(r.dmaBytes, 0u);
            EXPECT_GT(r.dmaCycles, 0u);
        } else {
            EXPECT_EQ(r.dmaOps, 0u);
            EXPECT_EQ(r.dmaCycles, 0u);
        }
    }
}

TEST(SystemIntegration, FusionEliminatesInterAccelDma)
{
    // The paper's core claim: data moves between accelerators
    // without host DMA. The DMA moves strictly more bytes than the
    // working set when functions share data; FUSION's L1X<->L2
    // data traffic stays near the working set.
    trace::Program p = smallProgram("tracking");
    RunResult sc = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Scratch), p);
    RunResult fu = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), p);
    EXPECT_GT(sc.dmaBytes, sc.workingSetBytes);
    std::uint64_t fu_l2_bytes = fu.l1xL2DataMsgs * 72ull;
    EXPECT_LT(fu_l2_bytes, sc.dmaBytes);
}

TEST(SystemIntegration, FusionFiltersL1xAccesses)
{
    // Lesson 3: the L0X filters the great majority of accesses.
    trace::Program p = smallProgram();
    RunResult fu = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), p);
    std::uint64_t l1x_traffic = fu.l1xHits + fu.l1xMisses;
    EXPECT_LT(l1x_traffic * 4, p.memOpCount());
}

TEST(SystemIntegration, SharedPaysPerAccessLinkTraffic)
{
    trace::Program p = smallProgram();
    RunResult sh = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Shared), p);
    // Every accelerator access crosses the AXC<->L1X link.
    EXPECT_GE(sh.l0xL1xCtrlMsgs + sh.l0xL1xDataMsgs,
              p.memOpCount());
}

TEST(SystemIntegration, HostFinalReadsForwardIntoTheTile)
{
    // Table 6: the host consuming outputs generates forwarded
    // requests answered via the AX-RMAP.
    trace::Program p = smallProgram();
    RunResult fu = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), p);
    EXPECT_GT(fu.fwdsToTile, 0u);
    EXPECT_GT(fu.axRmapLookups, 0u);
    EXPECT_GT(fu.axTlbLookups, 0u);
    // TLB lookups happen on the L1X miss path only.
    EXPECT_EQ(fu.axTlbLookups, fu.l1xMisses);
}

TEST(SystemIntegration, WriteThroughMultipliesTileFlits)
{
    trace::Program p = smallProgram();
    SystemConfig wb = SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion);
    SystemConfig wt = wb;
    wt.l0xWriteThrough = true;
    RunResult rwb = runProgram(wb, p);
    RunResult rwt = runProgram(wt, p);
    // Table 4: orders of magnitude more write bandwidth.
    EXPECT_GT(rwt.l0xL1xFlits, 3 * rwb.l0xL1xFlits);
}

TEST(SystemIntegration, DxForwardsOnSharingWorkloads)
{
    trace::Program p = smallProgram("fft");
    RunResult dx = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::FusionDx), p);
    EXPECT_GT(dx.l0xForwards, 0u);
    EXPECT_GT(dx.l0xL0xDataMsgs, 0u);
    RunResult fu = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), p);
    EXPECT_EQ(fu.l0xForwards, 0u);
}

TEST(SystemIntegration, LargeConfigDoublesL1xCapacityCost)
{
    trace::Program p = smallProgram();
    SystemConfig small = SystemConfig::preset(SystemConfig::Preset::Paper, 
        SystemKind::Fusion);
    SystemConfig large = SystemConfig::preset(SystemConfig::Preset::AxcLarge, SystemKind::Fusion);
    EXPECT_EQ(large.l0xBytes, 2 * small.l0xBytes);
    EXPECT_EQ(large.l1xBytes, 4 * small.l1xBytes);
    RunResult rs = runProgram(small, p);
    RunResult rl = runProgram(large, p);
    // Small working set: larger caches cannot help, higher access
    // energy hurts (Lesson 7).
    EXPECT_GE(rl.totalPj(), rs.totalPj());
}

TEST(SystemIntegration, HostProfileCoversAllFunctions)
{
    trace::Program p = smallProgram("susan");
    auto cycles = hostProfile(p);
    EXPECT_EQ(cycles.size(), p.functions.size());
    std::uint64_t total = 0;
    for (const auto &[name, c] : cycles) {
        EXPECT_GT(c, 0u) << name;
        total += c;
    }
    // smooth dominates (Table 1: 66% of time).
    EXPECT_GT(cycles.at("smooth") * 2, total);
    // No golden covers this path: pin its exact cycles.
    const std::map<std::string, std::uint64_t> expected{
        {"bright", 1553},
        {"corners", 17426},
        {"edges", 17426},
        {"smooth", 52145}};
    EXPECT_EQ(cycles, expected);
}

TEST(SystemIntegration, EnergyStackPartitionsTheLedger)
{
    trace::Program p = smallProgram();
    RunResult r = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), p);
    EnergyStack s = energyStack(r);
    EXPECT_NEAR(s.total(), r.totalPj(), r.totalPj() * 1e-9);
    EXPECT_GT(s.localStorePj, 0.0);
    EXPECT_GT(s.l1xPj, 0.0);
    EXPECT_DOUBLE_EQ(r.hierarchyPj(), r.totalPj() - s.dramPj);
}

TEST(SystemIntegration, MultiProcessTilePidIsolation)
{
    // Two processes' programs run back-to-back on one tile
    // without interference (PID-tagged caches).
    trace::Program p1 = smallProgram();
    trace::Program p2 = smallProgram();
    p2.pid = 2;
    RunResult r1 = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), p1);
    RunResult r2 = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), p2);
    EXPECT_EQ(r1.totalCycles, r2.totalCycles);
}

} // namespace
} // namespace fusion::core
