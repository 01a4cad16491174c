/**
 * @file
 * Table 3 — "Accelerator Execution Metrics": per function, the
 * cycles spent accelerated (KCyc), the lease time LT assigned to
 * its blocks, its share of total accelerator energy (%En.), and the
 * per-benchmark cache/compute energy ratio — all measured on the
 * FUSION configuration.
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
    bench::banner("Table 3: Accelerator Execution Metrics",
                  "Table 3 (Section 4)");

    const auto names = workloads::workloadNames();
    // The renderer needs the function metadata (LT column), so the
    // programs are built here and attached to the jobs — the sweep
    // reuses rather than rebuilds them.
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
        bench::runSweep("table3_execution_metrics", jobs, opt);

    std::printf("%-10s %-10s %9s %6s %6s   (cache/compute ratio "
                "per bench)\n",
                "bench", "function", "KCyc", "LT", "%En.");
    std::printf("%s\n", std::string(64, '-').c_str());

    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const trace::Program &prog = *progs[w];
        const core::RunResult &r = results[w];

        double energy_total = 0.0;
        for (const auto &[f, e] : r.funcEnergyPj)
            energy_total += e;

        double cache_pj = r.axcCachePj();
        double compute_pj =
            r.component(energy::comp::kAxcCompute);
        double ratio = compute_pj > 0 ? cache_pj / compute_pj : 0;

        bool first = true;
        for (const auto &fm : prog.functions) {
            auto it = r.funcCycles.find(fm.name);
            std::uint64_t cyc =
                it == r.funcCycles.end() ? 0 : it->second;
            auto eit = r.funcEnergyPj.find(fm.name);
            double pct_en =
                energy_total > 0 && eit != r.funcEnergyPj.end()
                    ? 100.0 * eit->second / energy_total
                    : 0.0;
            std::printf("%-10s %-10s %9.1f %6llu %6.1f%s\n",
                        first ? bench::displayName(name).c_str()
                              : "",
                        fm.name.c_str(),
                        static_cast<double>(cyc) / 1000.0,
                        static_cast<unsigned long long>(
                            fm.leaseTime),
                        pct_en,
                        first ? ("   [" + core::fmt(ratio, 2) + "]")
                                    .c_str()
                              : "");
            first = false;
        }
    }
    std::printf("\nLT values follow Table 3; KCyc and energy shares "
                "are measured.\n");
    return 0;
}
