/**
 * @file
 * Heap-allocation counter of the benchmark binary: alloc_count.cc
 * replaces the global operator new, and counts while a scope is open.
 * The benchmark is single-threaded, so plain counters suffice.
 */

#ifndef FUSIONBENCH_ALLOC_COUNT_HH
#define FUSIONBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace fusionbench
{

struct AllocTally
{
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
};

/** Counts every operator new made while it is alive. */
class AllocScope
{
  public:
    AllocScope();
    ~AllocScope();
    AllocScope(const AllocScope &) = delete;
    AllocScope &operator=(const AllocScope &) = delete;

    /** What was allocated since construction. */
    AllocTally tally() const;

  private:
    AllocTally _start;
};

} // namespace fusionbench

#endif // FUSIONBENCH_ALLOC_COUNT_HH
