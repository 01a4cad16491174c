/**
 * @file
 * Miss Status Holding Registers: merge concurrent misses to the same
 * cache line so only one request travels down the hierarchy; later
 * requesters piggyback on the in-flight fill.
 *
 * The file is backed by pooled, freelist-recycled storage: entries
 * live in an intrusive open-hash table (power-of-two bucket array of
 * indices into an entry pool) and targets in a second pooled singly
 * linked list, so the steady-state miss stream performs zero heap
 * allocations. Entries are keyed by (line address, PID) with a mixed
 * 64-bit hash; virtually-indexed users (the L1X) pass the PID,
 * physical users leave it at 0.
 */

#ifndef FUSION_MEM_MSHR_HH
#define FUSION_MEM_MSHR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace fusion::mem
{

/**
 * Mix a (line, pid) composite key into a full 64-bit hash
 * (splitmix64-style finalizer). Plain XOR-with-shifted-PID keying
 * aliases high address bits with the PID; the multiply-shift mix
 * separates every bit of both fields.
 */
inline std::uint64_t
mixLinePid(Addr line, Pid pid)
{
    std::uint64_t x =
        line ^ (0x9e3779b97f4a7c15ull *
                (static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(pid)) +
                 1));
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

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
        if (_buckets.empty())
            _buckets.assign(kInitialBuckets, kNil);
        else if (_numEntries >= _buckets.size())
            grow();
        std::size_t b = bucketOf(line_addr, pid);
        std::uint32_t ei = findInBucket(b, line_addr, pid);
        bool primary = ei == kNil;
        if (primary) {
            ei = newEntry(line_addr, pid);
            _entries[ei].nextEntry = _buckets[b];
            _buckets[b] = ei;
            ++_numEntries;
        }
        appendTarget(_entries[ei], std::move(target));
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
     * unlinked (and its storage recycled) *before* any target runs,
     * so a target may re-allocate an MSHR for the same line and
     * becomes a fresh primary miss.
     */
    void
    complete(Addr line_addr, Pid pid = 0)
    {
        std::uint32_t ei = kNil;
        if (!_buckets.empty()) {
            std::size_t b = bucketOf(line_addr, pid);
            std::uint32_t *link = &_buckets[b];
            while (*link != kNil) {
                Entry &e = _entries[*link];
                if (e.line == line_addr && e.pid == pid) {
                    ei = *link;
                    *link = e.nextEntry;
                    break;
                }
                link = &e.nextEntry;
            }
        }
        fusion_assert(ei != kNil,
                      "MSHR complete for unknown line ", line_addr);
        std::uint32_t ti = _entries[ei].headTarget;
        freeEntry(ei);
        --_numEntries;
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
        if (_buckets.empty())
            return false;
        return findInBucket(bucketOf(line_addr, pid), line_addr,
                            pid) != kNil;
    }

    /** Number of in-flight distinct (line, pid) entries. */
    std::size_t size() const { return _numEntries; }

    /** Total queued targets across all entries (diagnostics). */
    std::size_t targets() const { return _numTargets; }

    /** In-flight line addresses, sorted (diagnostic snapshots). */
    std::vector<Addr>
    pendingLines() const
    {
        std::vector<Addr> lines;
        lines.reserve(_numEntries);
        for (std::uint32_t h : _buckets)
            for (std::uint32_t ei = h; ei != kNil;
                 ei = _entries[ei].nextEntry)
                lines.push_back(_entries[ei].line);
        std::sort(lines.begin(), lines.end());
        return lines;
    }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr std::size_t kInitialBuckets = 16;

    struct TargetNode
    {
        Target fn;
        std::uint32_t next = kNil;
    };

    struct Entry
    {
        Addr line = 0;
        Pid pid = 0;
        std::uint32_t headTarget = kNil;
        std::uint32_t tailTarget = kNil;
        /** Bucket chain when live; freelist link when recycled. */
        std::uint32_t nextEntry = kNil;
    };

    std::size_t
    bucketOf(Addr line, Pid pid) const
    {
        return static_cast<std::size_t>(mixLinePid(line, pid)) &
               (_buckets.size() - 1);
    }

    std::uint32_t
    findInBucket(std::size_t b, Addr line, Pid pid) const
    {
        for (std::uint32_t ei = _buckets[b]; ei != kNil;
             ei = _entries[ei].nextEntry) {
            const Entry &e = _entries[ei];
            if (e.line == line && e.pid == pid)
                return ei;
        }
        return kNil;
    }

    std::uint32_t
    newEntry(Addr line, Pid pid)
    {
        std::uint32_t ei;
        if (_entryFree != kNil) {
            ei = _entryFree;
            _entryFree = _entries[ei].nextEntry;
        } else {
            ei = static_cast<std::uint32_t>(_entries.size());
            _entries.emplace_back();
        }
        Entry &e = _entries[ei];
        e.line = line;
        e.pid = pid;
        e.headTarget = kNil;
        e.tailTarget = kNil;
        e.nextEntry = kNil;
        return ei;
    }

    void
    freeEntry(std::uint32_t ei)
    {
        _entries[ei].nextEntry = _entryFree;
        _entryFree = ei;
    }

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

    /** Double the bucket array and re-chain every live entry. */
    void
    grow()
    {
        std::vector<std::uint32_t> old = std::move(_buckets);
        _buckets.assign(old.size() * 2, kNil);
        for (std::uint32_t h : old) {
            while (h != kNil) {
                std::uint32_t next = _entries[h].nextEntry;
                std::size_t b =
                    bucketOf(_entries[h].line, _entries[h].pid);
                _entries[h].nextEntry = _buckets[b];
                _buckets[b] = h;
                h = next;
            }
        }
    }

    std::vector<std::uint32_t> _buckets; ///< power-of-two heads
    std::vector<Entry> _entries;         ///< pooled entries
    std::vector<TargetNode> _targets;    ///< pooled target nodes
    std::uint32_t _entryFree = kNil;
    std::uint32_t _targetFree = kNil;
    std::size_t _numEntries = 0;
    std::size_t _numTargets = 0;
};

} // namespace fusion::mem

#endif // FUSION_MEM_MSHR_HH
