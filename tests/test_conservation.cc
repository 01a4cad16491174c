/**
 * @file
 * Cross-system conservation properties: quantities that must agree
 * between independent accounting paths (ledger vs link counters vs
 * stats registry) and across system organizations.
 */

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "core/system.hh"
#include "energy/link_energy.hh"

namespace fusion::core
{
namespace
{

/** Link energy booked in the ledger must equal bytes x pJ/B from
 *  the per-link byte counters — two fully independent paths. */
TEST(Conservation, LinkLedgerMatchesByteCounters)
{
    trace::Program p = *core::buildProgram("adpcm", workloads::Scale::Small);
    SystemConfig cfg = SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion);
    System sys(cfg, p);
    sys.run();

    const stats::Registry &st = sys.ctx().stats;
    auto bytes_of = [&](const std::string &name) {
        std::string path = "links." + name + ".bytes";
        return st.has(path) ? static_cast<double>(st.value(path))
                            : 0.0;
    };
    double tile_pj =
        sys.ctx().energy.total(energy::comp::kLinkL0xL1xMsg) +
        sys.ctx().energy.total(energy::comp::kLinkL0xL1xData);
    EXPECT_NEAR(tile_pj,
                bytes_of("l0x_l1x") *
                    energy::linkPjPerByte(
                        energy::LinkClass::AxcToL1x),
                1e-6);
    double host_pj =
        sys.ctx().energy.total(energy::comp::kLinkL1xL2Msg) +
        sys.ctx().energy.total(energy::comp::kLinkL1xL2Data);
    EXPECT_NEAR(host_pj,
                bytes_of("l1x_l2") *
                    energy::linkPjPerByte(
                        energy::LinkClass::L1xToL2),
                1e-6);
}

/** Cold DRAM traffic is a property of the program, not the
 *  accelerator organization: every cached system fetches each
 *  touched line exactly once (footprints fit the 4 MB LLC). */
TEST(Conservation, DramAccessesMatchAcrossCachedSystems)
{
    trace::Program p =
        *core::buildProgram("filter", workloads::Scale::Small);
    std::vector<std::uint64_t> accesses;
    for (auto k : {SystemKind::Shared, SystemKind::Fusion,
                   SystemKind::FusionDx}) {
        System sys(SystemConfig::preset(SystemConfig::Preset::Paper, k), p);
        sys.run();
        accesses.push_back(sys.ctx().stats.value("dram.accesses"));
    }
    EXPECT_EQ(accesses[0], accesses[1]);
    EXPECT_EQ(accesses[1], accesses[2]);
}

/** The L0X's request counters and the tile link's control-message
 *  counter describe the same events. */
TEST(Conservation, TileRequestsMatchLinkMessages)
{
    trace::Program p = *core::buildProgram("susan", workloads::Scale::Small);
    System sys(SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), p);
    RunResult r = sys.run();
    const stats::Registry &st = sys.ctx().stats;
    std::uint64_t misses = 0;
    for (const std::string &path : st.paths()) {
        if (path.find(".l0x.") == std::string::npos)
            continue;
        if (path.ends_with(".load_misses") ||
            path.ends_with(".store_misses"))
            misses += st.value(path);
    }
    // Each distinct miss sends one request message (merged misses
    // share one), so requests <= misses; and every control message
    // on the tile link is either a request or a Dx lease transfer.
    EXPECT_LE(r.l0xL1xCtrlMsgs, misses);
    EXPECT_GT(r.l0xL1xCtrlMsgs, 0u);
}

/** Total accelerator memory operations are invariant across
 *  systems (the trace is the trace). */
TEST(Conservation, MemOpsSeenEqualTraceLength)
{
    trace::Program p = *core::buildProgram("adpcm", workloads::Scale::Small);
    for (auto k : {SystemKind::Scratch, SystemKind::Shared,
                   SystemKind::Fusion}) {
        System sys(SystemConfig::preset(SystemConfig::Preset::Paper, k), p);
        sys.run();
        const stats::Registry &st = sys.ctx().stats;
        std::uint64_t ops = 0;
        for (const std::string &path : st.paths()) {
            if (path.rfind("axc", 0) != 0)
                continue;
            if (path.ends_with(".core.loads") ||
                path.ends_with(".core.stores"))
                ops += st.value(path);
        }
        EXPECT_EQ(ops, p.memOpCount()) << systemKindName(k);
    }
}

/** Energy is monotone in work: Paper-scale inputs cost strictly
 *  more than Small on every system. */
TEST(Conservation, EnergyMonotoneInInputScale)
{
    trace::Program small =
        *core::buildProgram("filter", workloads::Scale::Small);
    trace::Program paper =
        *core::buildProgram("filter", workloads::Scale::Paper);
    for (auto k : {SystemKind::Scratch, SystemKind::Fusion}) {
        RunResult rs =
            runProgram(SystemConfig::preset(SystemConfig::Preset::Paper, k), small);
        RunResult rp =
            runProgram(SystemConfig::preset(SystemConfig::Preset::Paper, k), paper);
        EXPECT_GT(rp.totalPj(), rs.totalPj());
        EXPECT_GT(rp.accelCycles, rs.accelCycles);
    }
}

} // namespace
} // namespace fusion::core
