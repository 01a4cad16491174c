/**
 * @file
 * fusion-simulate: the full command-line driver. Runs any workload
 * on any system organization with every configuration knob exposed,
 * and can dump the complete statistics tree and energy ledger.
 *
 *   ./example_simulate --workload fft --system fusion --paper
 *   ./example_simulate -w histogram -s scratch --spm 8192
 *   ./example_simulate -w disparity -s fusion-dx --overlap \
 *       --tiles 2 --l0x 8192 --l1x 262144 --stats stats.txt
 *
 * FUSION_DEBUG=ACC,... in the environment enables debug traces.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/reporters.hh"
#include "core/runner.hh"
#include "core/system.hh"
#include "sim/logging.hh"

using namespace fusion;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  -w, --workload NAME   fft|disparity|tracking|adpcm|\n"
        "                        susan|filter|histogram "
        "(default adpcm)\n"
        "  -s, --system KIND     scratch|shared|fusion|fusion-dx|"
        "fusion-mesi|auto\n"
        "                        (default fusion)\n"
        "      --paper           paper-scale inputs "
        "(default: small)\n"
        "      --l0x BYTES       private L0X capacity\n"
        "      --l1x BYTES       shared L1X capacity\n"
        "      --spm BYTES       scratchpad capacity (SCRATCH)\n"
        "      --repl POLICY     lru|fifo|random (L0X)\n"
        "      --write-through   write-through L0X (Table 4 mode)\n"
        "      --overlap         overlap independent invocations\n"
        "      --tiles N         number of accelerator tiles\n"
        "      --stats FILE      dump the stats tree + energy "
        "ledger\n"
        "  -h, --help\n",
        argv0);
}

bool
parseSystem(const std::string &s, core::SystemKind &out)
{
    // Canonical names + aliases (including "auto" for the
    // orchestrator) live next to SystemKind itself.
    auto k = core::parseSystemKind(s);
    if (!k)
        return false;
    out = *k;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Debug::initFromEnvironment();

    std::string workload = "adpcm";
    core::SystemKind kind = core::SystemKind::Fusion;
    workloads::Scale scale = workloads::Scale::Small;
    core::SystemConfig cfg = core::SystemConfig::preset(
            core::SystemConfig::Preset::Paper, kind);
    std::string stats_path;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fusion_fatal("missing value for ", a);
            return argv[++i];
        };
        if (a == "-w" || a == "--workload") {
            workload = next();
        } else if (a == "-s" || a == "--system") {
            if (!parseSystem(next(), kind))
                fusion_fatal("unknown system kind");
        } else if (a == "--paper") {
            scale = workloads::Scale::Paper;
        } else if (a == "--l0x") {
            cfg.l0xBytes = std::stoull(next());
        } else if (a == "--l1x") {
            cfg.l1xBytes = std::stoull(next());
        } else if (a == "--spm") {
            cfg.scratchpadBytes = std::stoull(next());
        } else if (a == "--repl") {
            std::string p = next();
            if (p == "lru")
                cfg.l0xRepl = mem::ReplPolicy::Lru;
            else if (p == "fifo")
                cfg.l0xRepl = mem::ReplPolicy::Fifo;
            else if (p == "random")
                cfg.l0xRepl = mem::ReplPolicy::Random;
            else
                fusion_fatal("unknown replacement policy: ", p);
        } else if (a == "--write-through") {
            cfg.l0xWriteThrough = true;
        } else if (a == "--overlap") {
            cfg.overlapInvocations = true;
        } else if (a == "--tiles") {
            cfg.numTiles =
                static_cast<std::uint32_t>(std::stoul(next()));
        } else if (a == "--stats") {
            stats_path = next();
        } else if (a == "-h" || a == "--help") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fusion_fatal("unknown option: ", a);
        }
    }
    cfg.kind = kind;

    auto errs = cfg.validate();
    if (!errs.empty()) {
        for (const auto &e : errs)
            std::fprintf(stderr, "error: %s\n", e.c_str());
        return 1;
    }

    std::printf("building '%s' (%s scale)...\n", workload.c_str(),
                scale == workloads::Scale::Paper ? "paper"
                                                 : "small");
    auto built = core::buildProgram(workload, scale);
    if (!built)
        fusion_fatal(core::unknownWorkloadMessage(workload));
    trace::Program prog = std::move(*built);
    std::printf("  %zu functions, %zu invocations, %llu memory "
                "ops\n",
                prog.functions.size(), prog.invocations.size(),
                static_cast<unsigned long long>(
                    prog.memOpCount()));

    core::System sys(cfg, prog);
    core::RunResult r = sys.run();

    std::printf("\n%s results:\n", core::systemKindName(kind));
    std::printf("  total cycles        %llu\n",
                static_cast<unsigned long long>(r.totalCycles));
    std::printf("  accelerated region  %llu cycles\n",
                static_cast<unsigned long long>(r.accelCycles));
    if (r.dmaCycles) {
        std::printf("  DMA wait            %llu cycles (%.1f%%)\n",
                    static_cast<unsigned long long>(r.dmaCycles),
                    100.0 * static_cast<double>(r.dmaCycles) /
                        static_cast<double>(r.accelCycles));
    }
    std::printf("  dynamic energy      %.3f uJ total, %.3f uJ "
                "hierarchy\n",
                r.totalPj() / 1e6, r.hierarchyPj() / 1e6);
    std::printf("\n  per-function cycles:\n");
    for (const auto &[f, c] : r.funcCycles) {
        std::printf("    %-12s %llu\n", f.c_str(),
                    static_cast<unsigned long long>(c));
    }
    std::printf("\n  energy by component (pJ):\n");
    for (const auto &[comp, pj] : r.energyPj)
        std::printf("    %-22s %14.1f\n", comp.c_str(), pj);

    if (!stats_path.empty()) {
        std::ofstream out(stats_path);
        if (!out)
            fusion_fatal("cannot open ", stats_path);
        sys.ctx().stats.dump(out);
        out << "\n# energy ledger (pJ)\n";
        for (const auto &[comp, pj] :
             sys.ctx().energy.components())
            out << comp << " " << pj << "\n";
        std::printf("\nstats tree written to %s\n",
                    stats_path.c_str());
    }
    return 0;
}
