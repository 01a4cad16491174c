/**
 * @file
 * Ablation — lease-time sensitivity. The LT column of Table 3 is a
 * per-function tuning knob: short leases force frequent
 * self-invalidation re-fetches (request-message energy, Lesson 4);
 * long leases delay host-forwarded responses (GTIME stalls) and
 * keep write epochs open longer. This sweep scales every function's
 * LT and reports the FUSION cycle/energy response.
 */

#include "bench_util.hh"

#include "sim/hash.hh"

int
main(int argc, char **argv)
{
    using namespace fusion;
    auto opt = bench::parseArgs(argc, argv);
    const auto kKind =
        bench::kindOrDefault(opt, core::SystemKind::Fusion);
    bench::banner("Ablation: lease-time sensitivity (FUSION)",
                  "design choice behind Table 3's LT column");

    const double kScales[] = {0.25, 0.5, 1.0, 2.0, 4.0, 16.0};
    const std::vector<std::string> kNames = {"adpcm", "fft",
                                             "susan"};
    // Each LT point simulates a lease-rescaled copy of the trace.
    // The rescale rides as a lazy SweepJob transform on the named
    // workload: the engine builds the base program and copies and
    // mutates it only when a point actually simulates, so cache
    // hits skip the build, the deep copy and the content hash.
    std::vector<sweep::SweepJob> jobs;
    for (const auto &name : kNames) {
        for (double s : kScales) {
            auto j = bench::job(kKind, name, opt.scale);
            j.transform = [s](trace::Program &p) {
                for (auto &f : p.functions) {
                    f.leaseTime = std::max<Cycles>(
                        16,
                        static_cast<Cycles>(
                            static_cast<double>(f.leaseTime) * s));
                }
            };
            j.transformId =
                fnv1a("lease-scale/" + core::fmt(s, 2));
            j.tag += "/lt=" + core::fmt(s, 2);
            jobs.push_back(std::move(j));
        }
    }
    auto results =
        bench::runSweep("ablation_lease_time", jobs, opt);

    std::printf("%-8s | %8s %12s %12s %12s\n", "bench", "LT scale",
                "cycles", "tile msgs", "energy(uJ)");
    std::printf("%s\n", std::string(60, '-').c_str());

    std::size_t idx = 0;
    for (const auto &name : kNames) {
        for (double s : kScales) {
            const core::RunResult &r = results[idx++];
            std::printf("%-8s | %8.2f %12llu %12llu %12.3f\n",
                        s == kScales[0]
                            ? bench::displayName(name).c_str()
                            : "",
                        s,
                        static_cast<unsigned long long>(
                            r.accelCycles),
                        static_cast<unsigned long long>(
                            r.l0xL1xCtrlMsgs),
                        r.hierarchyPj() / 1e6);
        }
        std::printf("\n");
    }
    std::printf("Short leases raise tile request traffic; very long "
                "leases mostly plateau\n(the paper sizes epochs to "
                "expected invocation latency).\n");
    return 0;
}
