/**
 * @file
 * Tests for the blocking MESI directory that the host LLC and the
 * FUSION-MESI tile share: request parking, entry erasure, the probe
 * fan-out and its join, and the grant rules — including the cases no
 * workload run reaches.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "coherence/directory.hh"

namespace fusion
{
namespace
{

using coherence::CoherenceReq;
using coherence::Directory;
using coherence::FwdKind;

using Probes = std::vector<std::pair<int, FwdKind>>;

/** A directory whose probes are recorded instead of sent. */
struct DirRig
{
    Probes probes;
    Directory dir{[this](Directory::Key, int id, FwdKind kind) {
        probes.emplace_back(id, kind);
    }};

    /** Answer every probe sent so far: each holder gives its copy
     *  up, except that a downgraded owner keeps S. */
    void
    answerProbes(Directory::Key k)
    {
        Probes sent = std::move(probes);
        probes.clear();
        for (const auto &[id, kind] : sent)
            dir.probed(k, id, kind, kind == FwdKind::FwdGetS);
        for (std::size_t i = 0; i < sent.size(); ++i)
            dir.acked(k);
    }

    /** One whole transaction: @p kind from @p id, probes answered. */
    Directory::Grant
    transact(Directory::Key k, int id, CoherenceReq kind)
    {
        EXPECT_TRUE(dir.begin(k));
        Directory::Grant got{};
        bool answered = false;
        dir.serve(k, id, kind, [&](Directory::Grant g) {
            got = g;
            answered = true;
        });
        answerProbes(k);
        EXPECT_TRUE(answered);
        dir.finish(k);
        return got;
    }
};

TEST(Directory, ParkedRequestsStartInArrivalOrder)
{
    DirRig r;
    Directory::Key a{0x1000, 1};
    Directory::Key b{0x1000, 2}; // same line, other PID
    ASSERT_TRUE(r.dir.begin(a));
    ASSERT_TRUE(r.dir.begin(b));
    std::vector<int> order;
    // Interleave the two entries' requests: each keeps its own FIFO
    // although both draw on one pool of parked slots.
    for (int i = 0; i < 3; ++i) {
        for (Directory::Key k : {a, b}) {
            EXPECT_FALSE(r.dir.begin(k));
            int tag = (k == a ? 0 : 10) + i;
            r.dir.park(k, [&r, &order, k, tag] {
                EXPECT_TRUE(r.dir.begin(k));
                order.push_back(tag);
            });
        }
    }
    EXPECT_EQ(r.dir.parkedCount(), 6u);
    for (int i = 0; i < 3; ++i) {
        r.dir.finish(a);
        r.dir.finish(b);
    }
    EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 11, 2, 12}));
    EXPECT_EQ(r.dir.parkedCount(), 0u);
    EXPECT_EQ(r.dir.busyCount(), 2u); // the last two still run
    r.dir.finish(a);
    r.dir.finish(b);
    EXPECT_EQ(r.dir.size(), 0u);
}

TEST(Directory, FinishAndDropEraseOnlyIdleEntries)
{
    DirRig r;
    Directory::Key k{0x2000};
    // A finished grant leaves its holder recorded.
    r.transact(k, 0, CoherenceReq::GetS);
    EXPECT_EQ(r.dir.size(), 1u);
    EXPECT_FALSE(r.dir.idle(k));
    r.dir.drop(k, 1); // not a holder
    EXPECT_EQ(r.dir.size(), 1u);
    r.dir.drop(k, 0);
    EXPECT_EQ(r.dir.size(), 0u);
    EXPECT_TRUE(r.dir.idle(k));

    // A busy entry outlives its last holder until it finishes.
    r.transact(k, 2, CoherenceReq::GetX);
    ASSERT_TRUE(r.dir.begin(k));
    r.dir.drop(k, 2);
    EXPECT_EQ(r.dir.size(), 1u);
    EXPECT_TRUE(r.dir.state(k).busy);
    r.dir.finish(k);
    EXPECT_EQ(r.dir.size(), 0u);

    // Finishing with a request parked hands the entry over.
    ASSERT_TRUE(r.dir.begin(k));
    bool started = false;
    r.dir.park(k, [&] {
        started = r.dir.begin(k);
    });
    r.dir.finish(k);
    EXPECT_TRUE(started);
    EXPECT_EQ(r.dir.size(), 1u);
    r.dir.finish(k);
    EXPECT_EQ(r.dir.size(), 0u);

    // Notices for an untracked line create nothing.
    r.dir.drop(Directory::Key{0x3000}, 0);
    EXPECT_EQ(r.dir.size(), 0u);
}

TEST(Directory, ClearProbesOwnerFirstThenSharersById)
{
    DirRig r;
    Directory::Key k{0x4000, 3};
    r.transact(k, 5, CoherenceReq::GetX); // owner 5
    ASSERT_TRUE(r.dir.begin(k));
    // Whatever the entry records: sharers next to the owner, added
    // out of id order.
    for (int id : {4, 0, 2, 1})
        r.dir.probed(k, id, FwdKind::FwdGetS, true);
    r.dir.clear(k, 2, false, [] {});
    EXPECT_EQ(r.probes, (Probes{{5, FwdKind::FwdGetX},
                                {0, FwdKind::Inv},
                                {1, FwdKind::Inv},
                                {4, FwdKind::Inv}}));
    r.answerProbes(k);
    Directory::State s = r.dir.state(k);
    EXPECT_EQ(s.owner, -1);
    EXPECT_EQ(s.sharers, Directory::bit(2)); // except kept its copy

    // An owner that is except goes unprobed; a downgrade sends the
    // owner FwdGetS.
    r.dir.finish(k);
    r.dir.drop(k, 2);
    r.transact(k, 1, CoherenceReq::GetX);
    ASSERT_TRUE(r.dir.begin(k));
    r.dir.clear(k, 1, false, [] {});
    EXPECT_TRUE(r.probes.empty());
    r.dir.clear(k, -1, true, [] {});
    EXPECT_EQ(r.probes, (Probes{{1, FwdKind::FwdGetS}}));
    r.answerProbes(k);
    r.dir.finish(k);
}

TEST(Directory, ClearRunsThenExactlyOnce)
{
    DirRig r;
    Directory::Key k{0x5000};
    // No holders: at once, before clear returns.
    ASSERT_TRUE(r.dir.begin(k));
    int runs = 0;
    r.dir.clear(k, -1, false, [&] { ++runs; });
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(r.probes.empty());
    r.dir.finish(k);

    // Three sharers: once, on the last acknowledgement.
    for (int id : {0, 1, 2})
        r.transact(k, id, CoherenceReq::GetS);
    ASSERT_TRUE(r.dir.begin(k));
    runs = 0;
    r.dir.clear(k, -1, false, [&] { ++runs; });
    ASSERT_EQ(r.probes.size(), 3u);
    for (const auto &[id, kind] : r.probes)
        r.dir.probed(k, id, kind, false);
    r.dir.acked(k);
    r.dir.acked(k);
    EXPECT_EQ(runs, 0);
    r.dir.acked(k);
    EXPECT_EQ(runs, 1);
    r.dir.finish(k);
    EXPECT_EQ(r.dir.size(), 0u);
}

TEST(Directory, GetSFromOwnerAnswersExclusiveAndChangesNothing)
{
    DirRig r;
    Directory::Key k{0x6000};
    r.transact(k, 3, CoherenceReq::GetS); // sole reader: E
    ASSERT_TRUE(r.dir.begin(k));
    Directory::Grant got{};
    bool answered = false;
    r.dir.serve(k, 3, CoherenceReq::GetS, [&](Directory::Grant g) {
        got = g;
        answered = true;
    });
    EXPECT_TRUE(answered);
    EXPECT_TRUE(got.exclusive);
    EXPECT_TRUE(got.withData);
    EXPECT_TRUE(r.probes.empty());
    Directory::State s = r.dir.state(k);
    EXPECT_EQ(s.owner, 3);
    EXPECT_EQ(s.sharers, 0u);
    r.dir.finish(k);
}

TEST(Directory, GrantRules)
{
    DirRig r;
    Directory::Key k{0x7000};
    Directory::Grant g = r.transact(k, 0, CoherenceReq::GetS);
    EXPECT_TRUE(g.exclusive); // sole reader
    g = r.transact(k, 1, CoherenceReq::GetS);
    EXPECT_FALSE(g.exclusive); // the owner was downgraded
    EXPECT_EQ(r.dir.state(k).sharers,
              Directory::bit(0) | Directory::bit(1));
    g = r.transact(k, 1, CoherenceReq::Upgrade);
    EXPECT_TRUE(g.exclusive);
    EXPECT_FALSE(g.withData); // the upgrader held a copy
    EXPECT_EQ(r.dir.state(k).owner, 1);
    EXPECT_EQ(r.dir.state(k).sharers, 0u);
    g = r.transact(k, 2, CoherenceReq::Upgrade);
    EXPECT_TRUE(g.withData); // its copy was invalidated meanwhile
    EXPECT_EQ(r.dir.state(k).owner, 2);
}

} // namespace
} // namespace fusion
