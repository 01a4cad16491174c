/**
 * @file
 * The blocking full-map MESI directory. The host LLC runs one over
 * the host's coherent agents (Table 2), and the FUSION-MESI L1X runs
 * one over its L0Xs.
 *
 * For each exact (line, PID) it records an owner (an M/E copy),
 * sharer bits, a busy flag and a FIFO of parked requests. One
 * transaction per entry runs at a time. An entry with no holder, no
 * transaction and nothing parked is erased.
 *
 * The directory owns the protocol's rules; its owner owns how a probe
 * and its answer travel. The owner hands over a probe transport at
 * construction, then reports each answer through probed() and each
 * returning acknowledgement through acked().
 */

#ifndef FUSION_COHERENCE_DIRECTORY_HH
#define FUSION_COHERENCE_DIRECTORY_HH

#include <algorithm>
#include <bit>
#include <compare>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coherence/protocol.hh"
#include "mem/line_table.hh"
#include "sim/logging.hh"
#include "sim/small_fn.hh"

namespace fusion::coherence
{

/** Full-map blocking MESI directory over up to 32 holder ids. */
class Directory
{
  public:
    /** An entry's identity. Physically addressed users leave PID 0. */
    struct Key
    {
        Addr line = 0;
        Pid pid = 0;
        Key(Addr l, Pid p = 0) : line(l), pid(p) {} // NOLINT: implicit
        auto operator<=>(const Key &) const = default;
    };

    /** What serve() granted the requester. */
    struct Grant
    {
        bool exclusive = false; ///< sole copy (E/M) rather than S
        bool withData = true;   ///< false: an Upgrade from a holder
    };

    /** One entry's recorded holders (all defaults when untracked). */
    struct State
    {
        int owner = -1;
        std::uint32_t sharers = 0;
        bool busy = false;
    };

    /** Sends one probe of @p kind for @p key to holder @p id. */
    using Probe = std::function<void(Key key, int id, FwdKind kind)>;
    /** A request parked behind a busy entry. */
    using Parked = sim::SmallFn<void()>;

    explicit Directory(Probe probe) : _probe(std::move(probe)) {}
    // The probe transport captures the directory's owner.
    Directory(const Directory &) = delete;
    Directory &operator=(const Directory &) = delete;

    static std::uint32_t
    bit(int id)
    {
        return 1u << static_cast<std::uint32_t>(id);
    }

    State
    state(Key key) const
    {
        const Entry *e = _entries.find(key.line, key.pid);
        return e ? State{e->owner, e->sharers, e->busy} : State{};
    }

    /** True when no transaction runs on @p key and nobody holds it. */
    bool
    idle(Key key) const
    {
        const Entry *e = _entries.find(key.line, key.pid);
        return !e || isIdle(*e);
    }

    std::size_t size() const { return _entries.size(); }
    std::size_t busyCount() const { return _busy; }
    std::size_t parkedCount() const { return _parkedCount; }

    /** Keys of the busy entries, sorted (diagnostic snapshots). */
    std::vector<Key>
    busyKeys() const
    {
        std::vector<Key> keys;
        _entries.forEach([&keys](Addr line, Pid pid, const Entry &e) {
            if (e.busy)
                keys.emplace_back(line, pid);
        });
        std::sort(keys.begin(), keys.end());
        return keys;
    }

    /**
     * Open a transaction on @p key. Returns false, changing nothing,
     * while one is in flight; the caller then parks or polls.
     */
    bool
    begin(Key key)
    {
        Entry &e = _entries.insert(key.line, key.pid);
        if (e.busy)
            return false;
        e.busy = true;
        ++_busy;
        return true;
    }

    /** Queue @p req to run when @p key's transaction finishes. */
    void
    park(Key key, Parked req)
    {
        Entry &e = at(key);
        fusion_assert(e.busy, "parking on an idle directory entry");
        e.parked.push_back(std::move(req));
        ++_parkedCount;
    }

    /** End @p key's transaction: start the oldest parked request,
     *  or erase the entry if it is idle. */
    void
    finish(Key key)
    {
        Entry *e = _entries.find(key.line, key.pid);
        fusion_assert(e != nullptr && e->busy,
                      "finishing an idle directory transaction");
        e->busy = false;
        --_busy;
        if (e->parked.empty()) {
            eraseIfIdle(key, *e);
            return;
        }
        Parked next = std::move(e->parked.front());
        e->parked.erase(e->parked.begin());
        --_parkedCount;
        next();
    }

    /** Holder @p id gave the line up (a writeback or an eviction
     *  notice); erases the entry if that leaves it idle. */
    void
    drop(Key key, int id)
    {
        if (Entry *e = _entries.find(key.line, key.pid)) {
            forget(*e, id);
            eraseIfIdle(key, *e);
        }
    }

    /** Record holder @p id's answer to a @p kind probe: a downgraded
     *  owner that @p retained its copy stays a sharer. */
    void
    probed(Key key, int id, FwdKind kind, bool retained)
    {
        Entry &e = at(key);
        forget(e, id);
        if (kind == FwdKind::FwdGetS && retained)
            e.sharers |= bit(id);
    }

    /** One probe's acknowledgement reached the directory. */
    void
    acked(Key key)
    {
        Entry &e = at(key);
        fusion_assert(e.acks != 0, "acknowledgement without a probe");
        if (--e.acks == 0) {
            sim::SmallFn<void()> then = std::move(e.joined);
            then();
        }
    }

    /**
     * Probe every holder of busy @p key but @p except: the owner
     * first (FwdGetS when @p downgrade, else FwdGetX), then each
     * sharer by ascending id (Inv). @p then runs once, after the
     * last acknowledgement, or at once when nobody is probed.
     */
    template <typename Then>
    void
    clear(Key key, int except, bool downgrade, Then &&then)
    {
        Entry &e = at(key);
        fusion_assert(e.busy && e.acks == 0,
                      "clear outside a directory transaction");
        int owner = e.owner != except ? e.owner : -1;
        std::uint32_t sharers = e.sharers;
        if (except >= 0)
            sharers &= ~bit(except);
        if (e.owner >= 0)
            sharers &= ~bit(e.owner);
        e.acks = static_cast<std::uint32_t>(std::popcount(sharers)) +
                 (owner >= 0 ? 1 : 0);
        if (e.acks == 0) {
            then();
            return;
        }
        e.joined = std::forward<Then>(then);
        if (owner >= 0)
            _probe(key, owner,
                   downgrade ? FwdKind::FwdGetS : FwdKind::FwdGetX);
        for (; sharers != 0; sharers &= sharers - 1)
            _probe(key, std::countr_zero(sharers), FwdKind::Inv);
    }

    /**
     * Apply @p kind from holder @p id to busy @p key, then call
     * @p answer with the Grant:
     *  - GetS: downgrade another owner and join the sharers; a sole
     *    reader gets E. A GetS from the owner itself is stale: it
     *    answers exclusive and changes nothing.
     *  - GetX/Upgrade: invalidate every other copy and grant M. An
     *    Upgrade from a current holder gets no data.
     */
    template <typename Answer>
    void
    serve(Key key, int id, CoherenceReq kind, Answer &&answer)
    {
        Entry &e = at(key);
        if (kind == CoherenceReq::GetS) {
            if (e.owner == id) {
                answer(Grant{true, true});
            } else if (e.owner >= 0) {
                clear(key, id, true,
                      [this, key, id,
                       answer = std::forward<Answer>(answer)]() mutable {
                          at(key).sharers |= bit(id);
                          answer(Grant{false, true});
                      });
            } else {
                bool exclusive = e.sharers == 0;
                if (exclusive)
                    e.owner = id;
                else
                    e.sharers |= bit(id);
                answer(Grant{exclusive, true});
            }
            return;
        }
        bool had_copy = kind == CoherenceReq::Upgrade &&
                        (e.owner == id || (e.sharers & bit(id)) != 0);
        clear(key, id, false,
              [this, key, id, had_copy,
               answer = std::forward<Answer>(answer)]() mutable {
                  Entry &d = at(key);
                  d.owner = id;
                  d.sharers = 0;
                  answer(Grant{true, !had_copy});
              });
    }

    /**
     * Self-check of the quiesced entries, one message per violation
     * in key order: an owner excludes sharers, and every recorded
     * line has a frame in the cache named @p cache (inclusion).
     */
    void
    check(const char *cache, const std::function<bool(Key)> &has_frame,
          std::vector<std::string> &out) const
    {
        std::vector<std::pair<Key, std::string>> bad;
        _entries.forEach([&](Addr line, Pid pid, const Entry &e) {
            if (e.busy)
                return;
            Key key{line, pid};
            if (e.owner >= 0 && e.sharers != 0)
                bad.emplace_back(key, "owner and sharers coexist");
            if ((e.owner >= 0 || e.sharers != 0) && !has_frame(key)) {
                bad.emplace_back(key, "directory entry without " +
                                          std::string(cache) +
                                          " frame");
            }
        });
        std::stable_sort(bad.begin(), bad.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (const auto &[key, why] : bad) {
            std::ostringstream os;
            os << why << " @ 0x" << std::hex << key.line;
            out.push_back(os.str());
        }
    }

  private:
    struct Entry
    {
        int owner = -1;
        std::uint32_t sharers = 0;
        bool busy = false;
        std::uint32_t acks = 0;      ///< probes clear() waits on
        sim::SmallFn<void()> joined; ///< clear()'s continuation
        /// Parked requests, oldest first. Empty, it allocates
        /// nothing, so erasing idle entries stays cheap.
        std::vector<Parked> parked;
    };

    Entry &
    at(Key key)
    {
        Entry *e = _entries.find(key.line, key.pid);
        fusion_assert(e != nullptr, "no directory entry for line ",
                      key.line);
        return *e;
    }

    static void
    forget(Entry &e, int id)
    {
        if (e.owner == id)
            e.owner = -1;
        e.sharers &= ~bit(id);
    }

    static bool
    isIdle(const Entry &e)
    {
        return !e.busy && e.owner < 0 && e.sharers == 0 &&
               e.parked.empty();
    }

    void
    eraseIfIdle(Key key, const Entry &e)
    {
        if (isIdle(e))
            _entries.erase(key.line, key.pid);
    }

    Probe _probe;
    mem::LineTable<Entry> _entries;
    std::size_t _busy = 0;
    std::size_t _parkedCount = 0;
};

} // namespace fusion::coherence

#endif // FUSION_COHERENCE_DIRECTORY_HH
