/**
 * @file
 * Table 6 — virtual-memory table lookups: AX-TLB lookups (L1X miss
 * path) and AX-RMAP lookups (host-forwarded requests) per
 * benchmark, plus the host->tile forwarded-demand counts and the
 * translation structures' share of total energy (Lesson 8).
 */

#include "bench_util.hh"

#include "energy/energy_ledger.hh"

int
main(int argc, char **argv)
{
    using namespace fusion;
    auto opt = bench::parseArgs(argc, argv);
    const auto kKind =
        bench::kindOrDefault(opt, core::SystemKind::Fusion);
    bench::banner("Table 6: Virtual memory table lookups (FUSION)",
                  "Table 6 (Section 5.6, Lesson 8)");

    const auto names = workloads::workloadNames();
    std::vector<sweep::SweepJob> jobs;
    std::vector<std::shared_ptr<const trace::Program>> progs;
    for (const auto &name : names) {
        progs.push_back(std::make_shared<const trace::Program>(
            bench::mustBuild(name, opt.scale)));
        auto j = bench::job(kKind, name,
                            opt.scale);
        j.prog = progs.back();
        jobs.push_back(std::move(j));
    }
    auto results =
        bench::runSweep("table6_address_translation", jobs, opt);

    std::printf("%-8s %10s %10s %10s %12s %10s\n", "bench",
                "AX-TLB", "AX-RMAP", "host fwds", "mem ops",
                "vm energy%");
    std::printf("%s\n", std::string(66, '-').c_str());

    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const trace::Program &prog = *progs[w];
        const core::RunResult &r = results[w];
        double vm_pj = r.component(energy::comp::kAxTlb) +
                       r.component(energy::comp::kAxRmap);
        std::printf("%-8s %10llu %10llu %10llu %12llu %9.3f%%\n",
                    bench::displayName(name).c_str(),
                    static_cast<unsigned long long>(r.axTlbLookups),
                    static_cast<unsigned long long>(
                        r.axRmapLookups),
                    static_cast<unsigned long long>(r.fwdsToTile),
                    static_cast<unsigned long long>(
                        prog.memOpCount()),
                    100.0 * vm_pj / r.totalPj());
    }
    std::printf("\nAX-TLB lookups == L1X misses (translation off "
                "the critical path);\nAX-RMAP lookups track host "
                "demands filtered by the precise directory.\n");
    return 0;
}
