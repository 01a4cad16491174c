/**
 * @file
 * Unit tests for mem::LineTable, the (address, PID) table behind the
 * MSHR file, the MESI directory, the AX-RMAP and the page table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "mem/line_table.hh"

namespace fusion::mem
{
namespace
{

struct Value
{
    int count = 0;
    std::vector<int> items;
};

TEST(LineTable, InsertReturnsFreshThenSameValue)
{
    LineTable<Value> t;
    EXPECT_EQ(t.find(0x40), nullptr);
    Value &v = t.insert(0x40);
    EXPECT_EQ(v.count, 0);
    EXPECT_TRUE(v.items.empty());
    v.count = 7;
    EXPECT_EQ(t.insert(0x40).count, 7);
    ASSERT_NE(t.find(0x40), nullptr);
    EXPECT_EQ(t.find(0x40)->count, 7);
    EXPECT_EQ(t.size(), 1u);
}

TEST(LineTable, ErasedSlotComesBackValueInitialized)
{
    // The directory relies on this: a recycled entry starts with no
    // owner, no sharers and nothing parked.
    LineTable<Value> t;
    Value &v = t.insert(0x40);
    v.count = 3;
    v.items = {1, 2};
    EXPECT_TRUE(t.erase(0x40));
    EXPECT_FALSE(t.erase(0x40));
    EXPECT_EQ(t.find(0x40), nullptr);
    EXPECT_EQ(t.size(), 0u);
    // The next insert, of another key, reuses the erased slot.
    Value &w = t.insert(0x80);
    EXPECT_EQ(&w, &v);
    EXPECT_EQ(w.count, 0);
    EXPECT_TRUE(w.items.empty());
}

TEST(LineTable, PidsKeepOneAddressApart)
{
    LineTable<int> t;
    t.insert(0x1000, 1) = 10;
    t.insert(0x1000, 2) = 20;
    // Two pairs that fold to one key, address ^ (pid << 48), stay
    // apart: equality is on the pair.
    const Addr folded = 0x1000 ^ (Addr{1 ^ 3} << 48);
    t.insert(folded, 3) = 30;
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(*t.find(0x1000, 1), 10);
    EXPECT_EQ(*t.find(0x1000, 2), 20);
    EXPECT_EQ(*t.find(folded, 3), 30);
    EXPECT_EQ(t.find(0x1000), nullptr);
    EXPECT_EQ(t.find(0x1000, 3), nullptr);
    t.erase(0x1000, 1);
    EXPECT_EQ(t.find(0x1000, 1), nullptr);
    EXPECT_EQ(*t.find(0x1000, 2), 20);
}

TEST(LineTable, ValuesSurviveGrowth)
{
    // Far past the first bucket array: every value stays with its
    // key through each doubling, and erasing half keeps the rest.
    LineTable<Addr> t;
    constexpr int kN = 1000;
    for (int i = 0; i < kN; ++i)
        t.insert(0x1000 + 64 * static_cast<Addr>(i), i % 3) =
            static_cast<Addr>(i);
    EXPECT_EQ(t.size(), static_cast<std::size_t>(kN));
    for (int i = 0; i < kN; i += 2)
        EXPECT_TRUE(t.erase(0x1000 + 64 * static_cast<Addr>(i), i % 3));
    for (int i = 0; i < kN; ++i) {
        const Addr *v = t.find(0x1000 + 64 * static_cast<Addr>(i), i % 3);
        if (i % 2 == 0) {
            EXPECT_EQ(v, nullptr) << i;
        } else {
            ASSERT_NE(v, nullptr) << i;
            EXPECT_EQ(*v, static_cast<Addr>(i));
        }
    }
    EXPECT_EQ(t.size(), static_cast<std::size_t>(kN / 2));
}

TEST(LineTable, ForEachVisitsEachLiveKeyOnce)
{
    LineTable<int> t;
    std::vector<std::pair<Addr, Pid>> want;
    for (int i = 0; i < 40; ++i) {
        Addr a = 0x2000 + 64 * static_cast<Addr>(i % 20);
        Pid pid = i / 20;
        t.insert(a, pid) = i;
        want.emplace_back(a, pid);
    }
    t.erase(0x2000, 0);
    want.erase(want.begin());
    std::vector<std::pair<Addr, Pid>> seen;
    t.forEach([&](Addr a, Pid pid, const int &v) {
        EXPECT_EQ(v, static_cast<int>(pid) * 20 +
                         static_cast<int>((a - 0x2000) / 64));
        seen.emplace_back(a, pid);
    });
    std::sort(seen.begin(), seen.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(seen, want);
}

} // namespace
} // namespace fusion::mem
