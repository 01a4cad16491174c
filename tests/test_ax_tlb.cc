/**
 * @file
 * Unit tests for the AX-TLB (Section 3.2 / Table 6).
 */

#include <gtest/gtest.h>

#include "vm/ax_tlb.hh"

namespace fusion::vm
{
namespace
{

struct TlbRig
{
    SimContext ctx;
    PageTable pt;
    AxTlbParams p;
    AxTlb tlb;

    explicit TlbRig(AxTlbParams params = {})
        : p(params), tlb(ctx, p, pt)
    {
    }

    Tick
    translateSync(Pid pid, Addr va, Addr *pa_out = nullptr)
    {
        Tick done_at = 0;
        tlb.translate(pid, va, [&](Addr pa) {
            done_at = ctx.now();
            if (pa_out)
                *pa_out = pa;
        });
        ctx.eq.run();
        return done_at;
    }
};

TEST(AxTlb, MissWalksThenHits)
{
    TlbRig r;
    r.pt.ensureMapped(1, 0x10000000);
    Addr pa1 = 0, pa2 = 0;
    Tick t1 = r.translateSync(1, 0x10000040, &pa1);
    EXPECT_EQ(t1, r.p.walkLatency);
    EXPECT_EQ(r.tlb.misses(), 1u);

    Tick t2 = r.translateSync(1, 0x10000080, &pa2);
    EXPECT_EQ(t2 - t1, r.p.hitLatency);
    EXPECT_EQ(r.tlb.misses(), 1u);
    EXPECT_EQ(r.tlb.lookups(), 2u);
    // Same page: same frame, offsets preserved.
    EXPECT_EQ(pa1 & ~Addr(kPageBytes - 1),
              pa2 & ~Addr(kPageBytes - 1));
}

TEST(AxTlb, TranslationMatchesPageTable)
{
    TlbRig r;
    r.pt.ensureMapped(1, 0x10002000);
    Addr pa = 0;
    r.translateSync(1, 0x10002123, &pa);
    EXPECT_EQ(pa, r.pt.translate(1, 0x10002123));
}

TEST(AxTlb, LruEvictionAtCapacity)
{
    AxTlbParams p;
    p.entries = 4;
    TlbRig r(p);
    for (Addr page = 0; page < 5; ++page)
        r.pt.ensureMapped(1, 0x10000000 + page * kPageBytes);
    // Fill 4 entries, then touch a 5th: the first should evict.
    for (Addr page = 0; page < 5; ++page)
        r.translateSync(1, 0x10000000 + page * kPageBytes);
    EXPECT_EQ(r.tlb.misses(), 5u);
    r.translateSync(1, 0x10000000); // page 0 was evicted
    EXPECT_EQ(r.tlb.misses(), 6u);
    r.translateSync(1, 0x10004000); // page 4 still resident
    EXPECT_EQ(r.tlb.misses(), 6u);
}

TEST(AxTlb, HitRefreshesLruOrder)
{
    AxTlbParams p;
    p.entries = 4;
    TlbRig r(p);
    for (Addr page = 0; page < 5; ++page)
        r.pt.ensureMapped(1, 0x10000000 + page * kPageBytes);
    // Fill 4 entries and hit the first: the second is now the least
    // recently used, so a 5th page evicts it, not the first.
    for (Addr page = 0; page < 4; ++page)
        r.translateSync(1, 0x10000000 + page * kPageBytes);
    r.translateSync(1, 0x10000000);
    EXPECT_EQ(r.tlb.misses(), 4u);
    r.translateSync(1, 0x10004000);
    EXPECT_EQ(r.tlb.misses(), 5u);
    r.translateSync(1, 0x10000000); // page 0 still resident
    EXPECT_EQ(r.tlb.misses(), 5u);
    r.translateSync(1, 0x10001000); // page 1 was evicted
    EXPECT_EQ(r.tlb.misses(), 6u);
}

TEST(AxTlb, PidsDoNotAlias)
{
    TlbRig r;
    r.pt.ensureMapped(1, 0x10000000);
    r.pt.ensureMapped(2, 0x10000000);
    Addr pa1 = 0, pa2 = 0;
    r.translateSync(1, 0x10000000, &pa1);
    r.translateSync(2, 0x10000000, &pa2);
    EXPECT_NE(pa1, pa2);
    EXPECT_EQ(r.tlb.misses(), 2u);
}

TEST(AxTlb, EnergyBookedPerLookup)
{
    TlbRig r;
    r.pt.ensureMapped(1, 0x10000000);
    r.translateSync(1, 0x10000000);
    r.translateSync(1, 0x10000040);
    EXPECT_DOUBLE_EQ(r.ctx.energy.total(energy::comp::kAxTlb),
                     2 * r.p.lookupPj);
}

} // namespace
} // namespace fusion::vm
