/**
 * @file
 * Experiment runner: the highest-level public API. Builds a
 * workload's traced Program once, then simulates it on any of the
 * four systems — one run at a time via runProgram(), or many
 * independent runs at once via the parallel sweep entry point
 * runSweep(). Also provides the host-only profile used for
 * Table 1's %Time column.
 */

#ifndef FUSION_CORE_RUNNER_HH
#define FUSION_CORE_RUNNER_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/results.hh"
#include "core/system_config.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace fusion::core
{

/**
 * Simulate @p prog on a system configured by @p cfg.
 * Calls cfg.validate() first and fusion_fatal()s with every problem
 * if the configuration is broken.
 */
RunResult runProgram(const SystemConfig &cfg,
                     const trace::Program &prog);

// The sweep vocabulary is defined in sweep/sweep.hh; re-exported
// here so experiment code only needs the runner header.
using sweep::SweepJob;
using sweep::SweepOptions;
using sweep::SweepProgress;

/**
 * Run a list of independent simulations on @p opt.jobs worker
 * threads and return results ordered by submission index. See
 * sweep::runSweep for the full contract (fail-fast validation,
 * per-job SimContext isolation, worker-count-independent results).
 */
inline std::vector<RunResult>
runSweep(const std::vector<SweepJob> &jobs,
         const SweepOptions &opt = {})
{
    return sweep::runSweep(jobs, opt);
}

/**
 * Replay every invocation on the host core ("un-accelerated"
 * execution) and return per-function cycle totals — the paper's
 * gprof-style profile behind Table 1's %Time.
 */
std::map<std::string, std::uint64_t>
hostProfile(const trace::Program &prog);

/**
 * Build one workload by name.
 * @return std::nullopt for unknown names; unknownWorkloadMessage()
 *         renders the matching error with the known-name list.
 */
std::optional<trace::Program>
buildProgram(const std::string &workload, workloads::Scale scale);

/** "unknown workload 'x' (known: fft disparity ...)". */
std::string unknownWorkloadMessage(const std::string &workload);

} // namespace fusion::core

#endif // FUSION_CORE_RUNNER_HH
