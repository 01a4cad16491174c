/**
 * @file
 * Property-based sweeps over randomized traces: protocol-level
 * invariants that must hold for *any* program, not just the seven
 * benchmarks. Random programs are generated from seeds
 * (TEST_P/INSTANTIATE_TEST_SUITE_P) and run on every system.
 */

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "core/system.hh"
#include "sim/rng.hh"
#include "trace/analysis.hh"
#include "trace/recorder.hh"

namespace fusion::core
{
namespace
{

/** A random multi-function program with inter-accelerator sharing. */
trace::Program
randomProgram(std::uint64_t seed)
{
    Rng rng(seed);
    trace::Recorder rec("rand" + std::to_string(seed));
    int nfunc = static_cast<int>(2 + rng.below(4));
    std::vector<FuncId> fids;
    for (int f = 0; f < nfunc; ++f) {
        trace::FunctionMeta m;
        // Appended rather than "f" + std::to_string(f), which GCC 12
        // misreports as an overlapping memcpy (-Wrestrict) at -O2.
        m.name = "f";
        m.name += std::to_string(f);
        m.accel = static_cast<AccelId>(f);
        m.mlp = static_cast<std::uint32_t>(1 + rng.below(6));
        m.leaseTime = 100 + 100 * rng.below(16);
        fids.push_back(rec.addFunction(m));
    }
    // Shared buffers.
    const Addr base = 0x10000000;
    const std::uint64_t buf_bytes = 4096 + rng.below(4) * 4096;

    rec.beginHostInit();
    for (Addr a = 0; a < buf_bytes; a += kLineBytes)
        rec.store(base + a, kLineBytes);
    rec.end();

    int ninv = static_cast<int>(3 + rng.below(6));
    for (int i = 0; i < ninv; ++i) {
        FuncId f = fids[rng.below(fids.size())];
        rec.beginInvocation(f);
        int nops = static_cast<int>(50 + rng.below(400));
        for (int op = 0; op < nops; ++op) {
            Addr a = base + (rng.below(buf_bytes) & ~7ull);
            switch (rng.below(4)) {
              case 0:
                rec.store(a, 8);
                break;
              case 3:
                rec.intOps(static_cast<std::uint32_t>(
                    1 + rng.below(20)));
                break;
              default:
                rec.load(a, 8);
            }
        }
        rec.end();
    }

    rec.beginHostFinal();
    for (Addr a = 0; a < buf_bytes; a += kLineBytes)
        rec.load(base + a, kLineBytes);
    rec.end();
    return rec.take();
}

class RandomPrograms
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomPrograms, EverySystemCompletesAndBooksEnergy)
{
    trace::Program p = randomProgram(GetParam());
    for (auto kind : {SystemKind::Scratch, SystemKind::Shared,
                      SystemKind::Fusion, SystemKind::FusionDx,
                      SystemKind::FusionMesi}) {
        RunResult r =
            runProgram(SystemConfig::preset(SystemConfig::Preset::Paper, kind), p);
        // Liveness: finished (run() panics on deadlock), took time,
        // every invocation attributed.
        EXPECT_GT(r.totalCycles, 0u);
        std::uint64_t func_total = 0;
        for (const auto &[n, c] : r.funcCycles)
            func_total += c;
        EXPECT_LE(func_total, r.totalCycles);
        EXPECT_GE(r.accelCycles, func_total);
        // Conservation: energy positive, hierarchy <= total.
        EXPECT_GT(r.totalPj(), 0.0);
        EXPECT_LE(r.hierarchyPj(), r.totalPj());
    }
}

TEST_P(RandomPrograms, DmaMovesAtLeastTheReadFootprint)
{
    trace::Program p = randomProgram(GetParam());
    RunResult r = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Scratch), p);
    // The oracle never transfers less than each window's read set;
    // across the run, DMA bytes >= unique loaded lines once.
    std::uint64_t loaded_lines = 0;
    {
        std::unordered_set<Addr> lines;
        for (const auto &inv : p.invocations)
            for (const auto &op : inv.ops)
                if (op.kind == trace::OpKind::Load)
                    lines.insert(lineAlign(op.addr));
        loaded_lines = lines.size();
    }
    EXPECT_GE(r.dmaBytes, loaded_lines * kLineBytes);
}

TEST_P(RandomPrograms, WindowsPartitionEveryInvocation)
{
    trace::Program p = randomProgram(GetParam());
    for (const auto &inv : p.invocations) {
        auto wins = trace::segmentWindows(inv, 64);
        ASSERT_FALSE(wins.empty());
        EXPECT_EQ(wins.front().beginOp, 0u);
        EXPECT_EQ(wins.back().endOp, inv.ops.size());
        for (std::size_t i = 0; i + 1 < wins.size(); ++i)
            EXPECT_EQ(wins[i].endOp, wins[i + 1].beginOp);
        for (const auto &w : wins) {
            std::unordered_set<Addr> unique;
            for (std::size_t o = w.beginOp; o < w.endOp; ++o) {
                if (inv.ops[o].kind != trace::OpKind::Compute)
                    unique.insert(lineAlign(inv.ops[o].addr));
            }
            EXPECT_LE(unique.size(), 64u);
            // Dirty set == stored lines in the window.
            std::unordered_set<Addr> stored;
            for (std::size_t o = w.beginOp; o < w.endOp; ++o)
                if (inv.ops[o].kind == trace::OpKind::Store)
                    stored.insert(lineAlign(inv.ops[o].addr));
            EXPECT_EQ(stored.size(), w.dirtyLines.size());
        }
    }
}

TEST_P(RandomPrograms, FusionCyclesInsensitiveToLeaseScale)
{
    // Correctness invariant: lease length trades messages for
    // staleness windows but must never deadlock or lose writes;
    // the program completes for extreme lease choices.
    trace::Program p = randomProgram(GetParam());
    for (Cycles lt : {Cycles(50), Cycles(20000)}) {
        trace::Program q = p;
        for (auto &f : q.functions)
            f.leaseTime = lt;
        RunResult r = runProgram(
            SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), q);
        EXPECT_GT(r.totalCycles, 0u);
    }
}

TEST_P(RandomPrograms, ShortLeasesRaiseTileRequestTraffic)
{
    trace::Program p = randomProgram(GetParam());
    trace::Program shortp = p, longp = p;
    for (auto &f : shortp.functions)
        f.leaseTime = 60;
    for (auto &f : longp.functions)
        f.leaseTime = 50000;
    RunResult rs = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), shortp);
    RunResult rl = runProgram(
        SystemConfig::preset(SystemConfig::Preset::Paper, SystemKind::Fusion), longp);
    EXPECT_GE(rs.l0xL1xCtrlMsgs, rl.l0xL1xCtrlMsgs);
}

TEST_P(RandomPrograms, ForwardPlanOnlyNamesRealConsumers)
{
    trace::Program p = randomProgram(GetParam());
    auto plan = trace::planForwarding(p);
    for (const auto &[inv_idx, lines] : plan) {
        ASSERT_LT(inv_idx, p.invocations.size());
        AccelId producer =
            p.functions[static_cast<std::size_t>(
                            p.invocations[inv_idx].func)]
                .accel;
        for (const auto &[line, consumer] : lines) {
            EXPECT_NE(consumer, producer);
            EXPECT_LT(static_cast<std::uint32_t>(consumer),
                      p.accelCount());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace fusion::core
