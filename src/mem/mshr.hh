/**
 * @file
 * Miss Status Holding Registers: merge concurrent misses to the same
 * cache line so only one request travels down the hierarchy; later
 * requesters piggyback on the in-flight fill.
 *
 * Entries live in a LineTable keyed by (line address, PID) and the
 * targets in a pooled singly linked list, so the steady-state miss
 * stream performs zero heap allocations. Virtually-indexed users
 * (the L1X) pass the PID, physical users leave it at 0.
 */

#ifndef FUSION_MEM_MSHR_HH
#define FUSION_MEM_MSHR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/line_table.hh"
#include "sim/logging.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace fusion::mem
{

/**
 * MSHR file keyed by (line address, PID). Template-free: targets are
 * plain callbacks invoked when the fill completes.
 */
class MshrFile
{
  public:
    using Target = sim::SmallFn<void()>;

    /**
     * Record a miss to (@p line_addr, @p pid).
     * @return true if this is the *primary* miss (the caller must
     *         issue the downstream request); false if merged onto an
     *         existing entry.
     */
    bool
    allocate(Addr line_addr, Pid pid, Target target)
    {
        Entry &e = _entries.insert(line_addr, pid);
        bool primary = e.headTarget == kNil;
        appendTarget(e, std::move(target));
        return primary;
    }

    /** PID-free overload for physically-addressed users. */
    bool
    allocate(Addr line_addr, Target target)
    {
        return allocate(line_addr, 0, std::move(target));
    }

    /**
     * Complete the fill for (@p line_addr, @p pid): pops the entry
     * and invokes every queued target in arrival order. The entry is
     * erased *before* any target runs, so a target may re-allocate
     * an MSHR for the same line and becomes a fresh primary miss.
     */
    void
    complete(Addr line_addr, Pid pid = 0)
    {
        const Entry *e = _entries.find(line_addr, pid);
        fusion_assert(e != nullptr,
                      "MSHR complete for unknown line ", line_addr);
        std::uint32_t ti = e->headTarget;
        _entries.erase(line_addr, pid);
        while (ti != kNil) {
            // Move the callback out and recycle the node before
            // invoking: the target may allocate MSHRs (possibly for
            // this very line) and must see consistent pool state.
            Target fn = std::move(_targets[ti].fn);
            std::uint32_t next = _targets[ti].next;
            freeTarget(ti);
            --_numTargets;
            ti = next;
            fn();
        }
    }

    /** Is a miss to this (line, pid) already in flight? */
    bool
    pending(Addr line_addr, Pid pid = 0) const
    {
        return _entries.find(line_addr, pid) != nullptr;
    }

    /** Number of in-flight distinct (line, pid) entries. */
    std::size_t size() const { return _entries.size(); }

    /** Total queued targets across all entries (diagnostics). */
    std::size_t targets() const { return _numTargets; }

    /** In-flight line addresses, sorted (diagnostic snapshots). */
    std::vector<Addr>
    pendingLines() const
    {
        std::vector<Addr> lines;
        lines.reserve(_entries.size());
        _entries.forEach(
            [&lines](Addr line, Pid, const Entry &) {
                lines.push_back(line);
            });
        std::sort(lines.begin(), lines.end());
        return lines;
    }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    struct TargetNode
    {
        Target fn;
        std::uint32_t next = kNil;
    };

    /** A fresh entry has no target; a live one at least one. */
    struct Entry
    {
        std::uint32_t headTarget = kNil;
        std::uint32_t tailTarget = kNil;
    };

    void
    appendTarget(Entry &e, Target &&t)
    {
        std::uint32_t ti;
        if (_targetFree != kNil) {
            ti = _targetFree;
            _targetFree = _targets[ti].next;
            _targets[ti].fn = std::move(t);
            _targets[ti].next = kNil;
        } else {
            ti = static_cast<std::uint32_t>(_targets.size());
            _targets.push_back(TargetNode{std::move(t), kNil});
        }
        if (e.tailTarget == kNil)
            e.headTarget = ti;
        else
            _targets[e.tailTarget].next = ti;
        e.tailTarget = ti;
        ++_numTargets;
    }

    void
    freeTarget(std::uint32_t ti)
    {
        _targets[ti].next = _targetFree;
        _targetFree = ti;
    }

    LineTable<Entry> _entries;
    std::vector<TargetNode> _targets; ///< pooled target nodes
    std::uint32_t _targetFree = kNil;
    std::size_t _numTargets = 0;
};

} // namespace fusion::mem

#endif // FUSION_MEM_MSHR_HH
