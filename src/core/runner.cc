#include "core/runner.hh"

#include "core/system.hh"
#include "sim/logging.hh"

namespace fusion::core
{

RunResult
runProgram(const SystemConfig &cfg, const trace::Program &prog)
{
    std::vector<std::string> errs = cfg.validate();
    if (!errs.empty()) {
        std::string joined;
        for (const auto &e : errs)
            joined += "\n  " + e;
        fusion_fatal("invalid SystemConfig:", joined);
    }
    System sys(cfg, prog);
    try {
        return sys.run();
    } catch (const guard::SimErrorException &ex) {
        // Fault isolation: surface the typed failure in the result
        // instead of crashing the caller.
        RunResult r;
        r.workload = prog.name;
        r.kind = cfg.kind;
        r.error = ex.error();
        r.faultsFired = sys.ctx().guard.faultsFired();
        r.faultFiredMask = sys.ctx().guard.firedFaultMask();
        return r;
    }
}

std::map<std::string, std::uint64_t>
hostProfile(const trace::Program &prog)
{
    // Replay every invocation on a host-only system; attribute
    // cycles per function.
    SimContext ctx;
    vm::PageTable pt;
    for (const auto &inv : prog.invocations) {
        for (const auto &op : inv.ops) {
            if (op.kind != trace::OpKind::Compute)
                pt.ensureMapped(prog.pid, op.addr);
        }
    }
    HostTile host(ctx, pt, prog.pid);

    std::map<std::string, std::uint64_t> cycles;
    for (const auto &inv : prog.invocations) {
        const auto &meta =
            prog.functions[static_cast<std::size_t>(inv.func)];
        Tick t0 = ctx.now();
        bool done = false;
        host.run(inv.ops, [&done] { done = true; });
        ctx.eq.run();
        fusion_assert(done, "host profile replay hung");
        cycles[meta.name] += ctx.now() - t0;
    }
    return cycles;
}

std::optional<trace::Program>
buildProgram(const std::string &workload, workloads::Scale scale)
{
    // The record/replay seam lives in the workloads layer: when the
    // global trace store is armed (bench --trace-dir), the build is
    // captured once per (name, scale) and replayed from disk after.
    return workloads::buildProgram(workload, scale);
}

std::string
unknownWorkloadMessage(const std::string &workload)
{
    std::string msg = "unknown workload '" + workload + "' (known:";
    for (const auto &n : workloads::workloadNames())
        msg += " " + n;
    msg += ")";
    return msg;
}

} // namespace fusion::core
