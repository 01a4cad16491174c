/**
 * @file
 * Table 2 — "System parameters": prints the simulated
 * configuration, including the derived CACTI-style energy/latency
 * figures each structure actually uses.
 */

#include "bench_util.hh"

#include "energy/link_energy.hh"
#include "energy/sram_model.hh"
#include "host/llc.hh"
#include "mem/dram.hh"

namespace
{

void
printSram(const char *name, fusion::energy::SramParams p)
{
    auto f = fusion::energy::evaluateSram(p);
    std::printf("  %-22s %6llu KB %2u-way %2u banks | %5.2f pJ/rd "
                "%5.2f pJ/wr %2llu cyc\n",
                name,
                static_cast<unsigned long long>(p.capacityBytes /
                                                1024),
                p.assoc, p.banks, f.readPj, f.writePj,
                static_cast<unsigned long long>(f.latency));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fusion;
    // Static configuration dump — accepts the shared CLI so every
    // harness responds to the same flags.
    auto opt = bench::parseArgs(argc, argv);
    bench::noteFixedComparison(opt,
                               "Table 2 (system parameters)");
    bench::banner("Table 2: System parameters", "Table 2 (Section 4)");

    auto cfg = core::SystemConfig::preset(
        core::SystemConfig::Preset::Paper,
        core::SystemKind::Fusion);

    std::printf("Host core: 2 GHz, %u-wide issue, %u in-flight "
                "loads, %u-entry store queue\n",
                core::kHostIssueWidth, core::kHostMaxLoads,
                core::kHostStoreQueue);
    const host::LlcParams llc;
    std::printf("LLC: %llu MB, %u-way, %u-tile NUCA ring "
                "(bank %llu cyc + %llu cyc/hop), directory MESI\n",
                static_cast<unsigned long long>(llc.capacityBytes >> 20),
                llc.assoc, llc.nucaBanks,
                static_cast<unsigned long long>(llc.bankLatency),
                static_cast<unsigned long long>(llc.hopLatency));
    const mem::DramParams dram;
    std::printf("DRAM: %u channels, open page, %llu/%llu cycle "
                "hit/miss latency\n\n",
                dram.channels,
                static_cast<unsigned long long>(dram.rowHitLatency),
                static_cast<unsigned long long>(dram.rowMissLatency));

    std::printf("Accelerator cache hierarchy (45nm ITRS-HP "
                "analytical fit):\n");
    printSram("Scratchpad",
              {cfg.scratchpadBytes, 1, 64, 1,
               energy::SramKind::ScratchpadRam});
    printSram("Private L0X",
              {cfg.l0xBytes, cfg.l0xAssoc, 64, 1,
               energy::SramKind::TimestampCache});
    printSram("Shared L1X",
              {cfg.l1xBytes, cfg.l1xAssoc, 64, cfg.l1xBanks,
               energy::SramKind::TimestampCache});
    printSram("Host L1",
              {core::kHostL1Bytes, core::kHostL1Assoc, 64, 1,
               energy::SramKind::Cache});
    auto large = core::SystemConfig::preset(
        core::SystemConfig::Preset::AxcLarge,
        core::SystemKind::Fusion);
    printSram("L0X-Large",
              {large.l0xBytes, large.l0xAssoc, 64, 1,
               energy::SramKind::TimestampCache});
    printSram("L1X-Large",
              {large.l1xBytes, large.l1xAssoc, 64, large.l1xBanks,
               energy::SramKind::TimestampCache});

    std::printf("\nLink energy parameters (Table 2):\n");
    std::printf("  Accelerator-L1X   %.1f pJ/byte\n",
                energy::linkPjPerByte(energy::LinkClass::AxcToL1x));
    std::printf("  L1X-Host L2       %.1f pJ/byte\n",
                energy::linkPjPerByte(energy::LinkClass::L1xToL2));
    std::printf("  L0X-L0X (Dx)      %.1f pJ/byte\n",
                energy::linkPjPerByte(energy::LinkClass::L0xToL0x));
    std::printf("\nDMA engine: oracle, at-LLC, %u outstanding line "
                "transactions\n",
                cfg.dmaMaxOutstanding);
    return 0;
}
