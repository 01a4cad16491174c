/**
 * @file
 * Frozen drift-reference kernel of the benchmark.
 *
 * How fast a shared host runs the same code drifts over tens of
 * seconds, by far more than the changes the benchmark must resolve.
 * The benchmark runs a fixed slice of this kernel before every timed
 * operation and divides each host time by the kernel's time over the
 * same stretch of the run, which cancels most of that drift.
 *
 * The kernel is a self-contained toy discrete-event cache simulator
 * with the same host-side character as the simulator it calibrates:
 * a binary heap of std::function events, set-associative tag arrays,
 * std::map counters and virtual dispatch. It includes no simulator
 * header and must never change: every recorded reference time
 * (R0 in fusionbench/calibration.json) assumes this exact work.
 */

#ifndef FUSIONBENCH_REF_KERNEL_HH
#define FUSIONBENCH_REF_KERNEL_HH

#include <cstdint>

namespace fusionbench
{

/** One slice of reference work. */
struct RefSlice
{
    /** Host seconds of the timed part (the warm-up is untimed). */
    double seconds = 0.0;
    /** Checksum of the timed part; a function of @p units alone. */
    std::uint64_t checksum = 0;
};

/**
 * Run one slice: build a fresh toy system, warm it up untimed, then
 * time @p units units of 1024 events each.
 */
RefSlice runRefSlice(std::uint32_t units);

} // namespace fusionbench

#endif // FUSIONBENCH_REF_KERNEL_HH
