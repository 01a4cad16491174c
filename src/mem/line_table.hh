/**
 * @file
 * The one table for per-line state keyed by (address, PID): the MSHR
 * file, the MESI directory, the AX-RMAP and the page table keep their
 * entries in it.
 *
 * Slots live in one vector and are chained per bucket by index; an
 * erased slot goes on a freelist and is reused by the next insert, so
 * a steady stream of inserts and erases makes no heap allocation. The
 * bucket is one Fibonacci multiply of the key, with the PID folded
 * into the high bits; equality is on the full (address, PID) pair, so
 * two pairs that fold to one key stay apart. Virtually addressed
 * users pass the PID, physical ones leave it at 0.
 *
 * An insert may grow the slot vector and so move every value: no
 * caller may hold a reference or pointer into the table across an
 * insert.
 */

#ifndef FUSION_MEM_LINE_TABLE_HH
#define FUSION_MEM_LINE_TABLE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace fusion::mem
{

template <typename V>
class LineTable
{
  public:
    V *
    find(Addr addr, Pid pid = 0)
    {
        std::uint32_t si = lookup(addr, pid);
        return si == kNil ? nullptr : &_slots[si].value;
    }

    const V *
    find(Addr addr, Pid pid = 0) const
    {
        std::uint32_t si = lookup(addr, pid);
        return si == kNil ? nullptr : &_slots[si].value;
    }

    /** The entry for (@p addr, @p pid), added value-initialized if
     *  there is none. */
    V &
    insert(Addr addr, Pid pid = 0)
    {
        if (std::uint32_t si = lookup(addr, pid); si != kNil)
            return _slots[si].value;
        if (_size >= _buckets.size())
            grow();
        std::uint32_t si = _free;
        if (si != kNil) {
            _free = _slots[si].next;
        } else {
            si = static_cast<std::uint32_t>(_slots.size());
            _slots.emplace_back();
        }
        Slot &s = _slots[si];
        s.addr = addr;
        s.pid = pid;
        std::uint32_t &head = _buckets[bucketOf(addr, pid)];
        s.next = head;
        head = si;
        ++_size;
        return s.value;
    }

    /** Remove (@p addr, @p pid), resetting its value so the slot
     *  comes back value-initialized. @return whether it was there. */
    bool
    erase(Addr addr, Pid pid = 0)
    {
        if (_buckets.empty())
            return false;
        for (std::uint32_t *link = &_buckets[bucketOf(addr, pid)];
             *link != kNil; link = &_slots[*link].next) {
            Slot &s = _slots[*link];
            if (s.addr == addr && s.pid == pid) {
                std::uint32_t si = *link;
                *link = s.next;
                s.value = V{};
                s.next = _free;
                _free = si;
                --_size;
                return true;
            }
        }
        return false;
    }

    /** Call @p fn(addr, pid, value) once per live entry, in no
     *  particular order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t head : _buckets)
            for (std::uint32_t si = head; si != kNil; si = _slots[si].next)
                fn(_slots[si].addr, _slots[si].pid, _slots[si].value);
    }

    std::size_t size() const { return _size; }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr unsigned kInitialBucketBits = 4;

    struct Slot
    {
        Addr addr = 0;
        Pid pid = 0;
        /** Bucket chain when live; freelist link when erased. */
        std::uint32_t next = kNil;
        V value{};
    };

    std::size_t
    bucketOf(Addr addr, Pid pid) const
    {
        std::uint64_t key =
            addr ^ (std::uint64_t{static_cast<std::uint32_t>(pid)} << 48);
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> _shift);
    }

    std::uint32_t
    lookup(Addr addr, Pid pid) const
    {
        if (_buckets.empty())
            return kNil;
        std::uint32_t si = _buckets[bucketOf(addr, pid)];
        while (si != kNil &&
               (_slots[si].addr != addr || _slots[si].pid != pid))
            si = _slots[si].next;
        return si;
    }

    /** Double the bucket array (or make the first) and re-chain every
     *  live slot. */
    void
    grow()
    {
        std::vector<std::uint32_t> old = std::move(_buckets);
        unsigned bits =
            old.empty() ? kInitialBucketBits : 65 - _shift;
        _shift = 64 - bits;
        _buckets.assign(std::size_t{1} << bits, kNil);
        for (std::uint32_t head : old) {
            while (head != kNil) {
                Slot &s = _slots[head];
                std::uint32_t next = s.next;
                std::uint32_t &b = _buckets[bucketOf(s.addr, s.pid)];
                s.next = b;
                b = head;
                head = next;
            }
        }
    }

    std::vector<std::uint32_t> _buckets; ///< power-of-two chain heads
    std::vector<Slot> _slots;
    std::uint32_t _free = kNil; ///< erased slots, most recent first
    std::size_t _size = 0;
    unsigned _shift = 64;
};

} // namespace fusion::mem

#endif // FUSION_MEM_LINE_TABLE_HH
