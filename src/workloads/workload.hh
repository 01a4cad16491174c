/**
 * @file
 * The benchmark suite (Section 4, Table 1): seven applications from
 * SD-VBS and MachSuite in which multiple functions are offloaded to
 * accelerators and share data.
 *
 * SD-VBS / MachSuite sources are not redistributable here, so each
 * accelerated function is re-implemented from its published
 * algorithm and executed *for real* over Traced<> arrays on
 * deterministic synthetic inputs sized to land in the paper's
 * working-set regime (Table 6d). Every workload self-checks its
 * numerical results against an independent golden reference before
 * returning the trace, so the traces are memory behaviour of
 * genuinely correct executions.
 *
 * Per-function MLP and lease-time (LT) metadata follow Table 1 /
 * Table 3.
 */

#ifndef FUSION_WORKLOADS_WORKLOAD_HH
#define FUSION_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace fusion::trace
{
struct StoredTrace;
}

namespace fusion::workloads
{

/** Workload input-size scale: Paper = Table 6d regime, Small = fast
 *  CI-size inputs for unit tests, Large = ~4x Paper footprints for
 *  scaling studies. */
enum class Scale
{
    Small,
    Paper,
    Large
};

/** Pick a dimension for the given scale. */
constexpr std::size_t
scaled(Scale s, std::size_t small, std::size_t paper,
       std::size_t large)
{
    switch (s) {
      case Scale::Small:
        return small;
      case Scale::Paper:
        return paper;
      case Scale::Large:
        return large;
    }
    return paper;
}

/** Stable lower-case scale name ("small", "paper", "large"); also
 *  the trace-store file key component. */
const char *scaleName(Scale s);

/** One benchmark application. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Canonical short name ("fft", "disparity", ...). */
    virtual std::string name() const = 0;

    /** Display name used in paper tables ("FFT", "DISP.", ...). */
    virtual std::string displayName() const = 0;

    /**
     * Execute the kernels over instrumented arrays and return the
     * captured Program. Panics if the golden self-check fails.
     */
    virtual trace::Program build(Scale scale) const = 0;
};

/** All benchmark names in the paper's presentation order. */
std::vector<std::string> workloadNames();

/** Factory. @return nullptr for unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/**
 * Register an extra workload factory under @p name (nullptr removes
 * a prior registration). Built-in names always win; registered names
 * are appended to workloadNames(). Intended as a test seam — e.g.
 * injecting a workload whose build() throws to exercise the sweep
 * engine's program-cache failure path — so registration is not
 * synchronized: register before launching sweeps.
 */
void registerWorkload(const std::string &name,
                      std::unique_ptr<Workload> (*factory)());

/**
 * Build one workload by name, with a record/replay path: when the
 * process-global trace store is armed (trace::setGlobalStoreDir,
 * bench --trace-dir), a previously recorded trace for (name, scale)
 * is replayed from disk instead of re-executing the kernels, and a
 * freshly generated trace is recorded for next time. Replayed
 * programs are exact round-trips — byte-identical serialized form
 * and therefore byte-identical simulation results (anchored by
 * tests/test_trace_store.cc). Registered test workloads
 * (registerWorkload) are never recorded or replayed.
 *
 * Equivalent to storedTrace() and StoredTrace::decode(), falling
 * back to generateProgram().
 *
 * @return std::nullopt for unknown names.
 */
std::optional<trace::Program> buildProgram(const std::string &name,
                                           Scale scale);

/**
 * The replay seam: the recorded trace for (name, scale), read once
 * and envelope-verified but not decoded. Only a built-in workload
 * that registerWorkload has not overridden is replayed, and only
 * while the global trace store is armed; std::nullopt otherwise, or
 * when no intact file is recorded. Callers include trace/store.hh.
 */
std::optional<trace::StoredTrace> storedTrace(const std::string &name,
                                              Scale scale);

/**
 * Execute @p name's kernels at @p scale, skipping the replay lookup,
 * and record the program over any stored file when storedTrace()
 * would replay @p name. For callers that already tried
 * storedTrace(). @return std::nullopt for unknown names.
 */
std::optional<trace::Program> generateProgram(const std::string &name,
                                              Scale scale);

} // namespace fusion::workloads

#endif // FUSION_WORKLOADS_WORKLOAD_HH
