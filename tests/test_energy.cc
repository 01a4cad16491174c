/**
 * @file
 * Tests for the CACTI-style SRAM model, link energies and ledger —
 * including the calibration points the paper's lessons rest on.
 */

#include <gtest/gtest.h>

#include "energy/energy_ledger.hh"
#include "energy/link_energy.hh"
#include "energy/sram_model.hh"

namespace fusion::energy
{
namespace
{

SramFigures
figsFor(std::uint64_t bytes, std::uint32_t assoc,
        std::uint32_t banks, SramKind kind)
{
    SramParams p;
    p.capacityBytes = bytes;
    p.assoc = assoc;
    p.banks = banks;
    p.kind = kind;
    return evaluateSram(p);
}

TEST(SramModel, EnergyGrowsWithCapacity)
{
    auto small = figsFor(4096, 4, 1, SramKind::Cache);
    auto big = figsFor(64 * 1024, 4, 1, SramKind::Cache);
    EXPECT_GT(big.readPj, small.readPj);
    EXPECT_GT(big.areaMm2, small.areaMm2);
}

TEST(SramModel, BankingReducesAccessEnergy)
{
    auto mono = figsFor(64 * 1024, 8, 1, SramKind::Cache);
    auto banked = figsFor(64 * 1024, 8, 16, SramKind::Cache);
    EXPECT_LT(banked.readPj, mono.readPj);
}

TEST(SramModel, TimestampCheckAddsTagEnergy)
{
    auto plain = figsFor(4096, 4, 1, SramKind::Cache);
    auto ts = figsFor(4096, 4, 1, SramKind::TimestampCache);
    EXPECT_GT(ts.readPj, plain.readPj);
    // The overhead is on the tag path only: ~15% of ~15%.
    EXPECT_LT(ts.readPj, plain.readPj * 1.05);
}

TEST(SramModel, ScratchpadHasNoTagEnergy)
{
    auto spm = figsFor(4096, 1, 1, SramKind::ScratchpadRam);
    auto cache = figsFor(4096, 4, 1, SramKind::Cache);
    EXPECT_LT(spm.readPj, cache.readPj);
    EXPECT_DOUBLE_EQ(spm.tagProbePj, 0.0);
}

// Lesson 3 calibration: the 4K L0X is ~1.5x more energy-efficient
// than the heavily banked 64K L1X.
TEST(SramModel, L0xVsL1xRatioMatchesLesson3)
{
    auto l0x = figsFor(4096, 4, 1, SramKind::TimestampCache);
    auto l1x = figsFor(64 * 1024, 8, 16, SramKind::TimestampCache);
    double ratio = l1x.readPj / l0x.readPj;
    EXPECT_GT(ratio, 1.2);
    EXPECT_LT(ratio, 1.8);
}

// Lesson 7 calibration: the 256K L1X costs ~2x the 64K L1X per
// access and is 2 cycles slower.
TEST(SramModel, LargeL1xMatchesLesson7)
{
    auto small = figsFor(64 * 1024, 8, 16, SramKind::TimestampCache);
    auto large = figsFor(256 * 1024, 8, 16,
                         SramKind::TimestampCache);
    double ratio = large.readPj / small.readPj;
    EXPECT_GT(ratio, 1.7);
    EXPECT_LT(ratio, 2.3);
    EXPECT_EQ(large.latency, small.latency + 2);
}

TEST(SramModel, LatencyTable2Points)
{
    // 4KB scratchpad/L0X: single cycle.
    EXPECT_EQ(figsFor(4096, 4, 1, SramKind::Cache).latency, 1u);
    // 64KB host L1: 3 cycles (Table 2).
    EXPECT_EQ(figsFor(64 * 1024, 4, 1, SramKind::Cache).latency,
              3u);
}

TEST(SramModel, WritesCostMoreThanReads)
{
    auto f = figsFor(64 * 1024, 8, 16, SramKind::Cache);
    EXPECT_GT(f.writePj, f.readPj);
}

TEST(LinkEnergy, Table2Values)
{
    EXPECT_DOUBLE_EQ(linkPjPerByte(LinkClass::AxcToL1x), 0.4);
    EXPECT_DOUBLE_EQ(linkPjPerByte(LinkClass::L1xToL2), 6.0);
    EXPECT_DOUBLE_EQ(linkPjPerByte(LinkClass::L0xToL0x), 0.1);
}

TEST(Ledger, AccumulatesPerComponent)
{
    Ledger l;
    ComponentId a = l.component("a");
    ComponentId b = l.component("b");
    EXPECT_EQ(l.component("a"), a); // idempotent registration
    l.add(a, 1.0);
    l.add(a, 2.0);
    l.add(b, 4.0);
    EXPECT_DOUBLE_EQ(l.total("a"), 3.0);
    EXPECT_DOUBLE_EQ(l.total("b"), 4.0);
    EXPECT_DOUBLE_EQ(l.total("absent"), 0.0);
    EXPECT_DOUBLE_EQ(l.grandTotal(), 7.0);
}

TEST(Ledger, ResetClears)
{
    Ledger l;
    l.add(l.component("x"), 5.0);
    l.reset();
    EXPECT_DOUBLE_EQ(l.grandTotal(), 0.0);
}

} // namespace
} // namespace fusion::energy
