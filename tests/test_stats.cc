/**
 * @file
 * Unit tests for the stats package.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace fusion::stats
{
namespace
{

TEST(Histogram, BucketsAndMoments)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(i + 0.5);
    EXPECT_EQ(h.samples(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.5);
    EXPECT_DOUBLE_EQ(h.maxValue(), 9.5);
    for (auto b : h.buckets())
        EXPECT_EQ(b, 1u);
}

TEST(Histogram, BucketBoundariesUnchangedByScalePrecompute)
{
    // Regression for the reciprocal-scale fast path in sample():
    // values exactly on bucket boundaries must land in the same
    // bucket the old divide produced, and values epsilon below a
    // boundary must stay one bucket lower.
    Histogram h(0.0, 64.0, 16); // width 4 — the in-tree shape
    for (int b = 0; b < 16; ++b)
        h.sample(b * 4.0); // boundary value opens bucket b
    for (std::size_t b = 0; b < 16; ++b)
        EXPECT_EQ(h.buckets()[b], 1u) << "bucket " << b;

    Histogram below(0.0, 64.0, 16);
    for (int b = 1; b < 16; ++b)
        below.sample(std::nextafter(b * 4.0, 0.0));
    for (std::size_t b = 0; b + 1 < 16; ++b)
        EXPECT_EQ(below.buckets()[b], 1u) << "bucket " << b;
    EXPECT_EQ(below.buckets()[15], 0u);

    // Non-power-of-two range where the scale is inexact.
    Histogram odd(0.0, 10.0, 10);
    for (int b = 0; b < 10; ++b)
        odd.sample(static_cast<double>(b));
    for (std::size_t b = 0; b < 10; ++b)
        EXPECT_EQ(odd.buckets()[b], 1u) << "bucket " << b;
}

TEST(Histogram, UnderAndOverflow)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(-1.0);
    h.sample(10.0); // hi is exclusive
    h.sample(100.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, PercentileInterpolatesWithinBuckets)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(i + 0.5); // one sample per bucket
    // p0/p100 pin to the observed extremes.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.5);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 9.5);
    // Half the mass lies below 5.0 (buckets 0..4).
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 5.0);
    // p95 lands in the last bucket: rank 9.5 with 9 seen -> half way
    // through [9, 10), clamped to max 9.5.
    EXPECT_DOUBLE_EQ(h.percentile(95.0), 9.5);
    EXPECT_GE(h.percentile(99.0), h.percentile(95.0));
    // Monotone in p.
    for (int p = 10; p <= 100; p += 10)
        EXPECT_GE(h.percentile(p), h.percentile(p - 10));
}

TEST(Histogram, PercentileSingleSampleBucketReportsTheSample)
{
    // Interpolation is clamped to the observed extremes, so one
    // sample reports itself at every percentile rather than a
    // bucket-edge artifact.
    Histogram h(0.0, 64.0, 16);
    h.sample(7.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 7.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 7.0);
}

TEST(Histogram, PercentileHandlesUnderAndOverflowMass)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(-1.0);
    h.sample(10.0);
    h.sample(100.0);
    // All mass is in the under/overflow bins; the estimate stays
    // inside [min, max] and is monotone.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), -1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
    double p50 = h.percentile(50.0);
    EXPECT_GE(p50, -1.0);
    EXPECT_LE(p50, 100.0);
    // The p50 rank (1.5 of 3) is half way through the overflow bin
    // spanning [10, 100].
    EXPECT_DOUBLE_EQ(p50, 32.5);
    // Pure-underflow percentiles interpolate over [min, lo).
    double p10 = h.percentile(10.0);
    EXPECT_GE(p10, -1.0);
    EXPECT_LE(p10, 0.0);
}

TEST(Histogram, PercentileEmptyAndClamping)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0); // no samples
    h.sample(4.0);
    // Out-of-range p clamps instead of reading out of bounds.
    EXPECT_DOUBLE_EQ(h.percentile(-5.0), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(250.0), h.percentile(100.0));
}

TEST(Registry, BoundCounterReadsTheLiveMember)
{
    Registry r;
    std::uint64_t hits = 0;
    r.counter("llc.hits", hits);
    EXPECT_TRUE(r.has("llc.hits"));
    EXPECT_EQ(r.value("llc.hits"), 0u);
    hits += 42; // no registry call on the bump
    EXPECT_EQ(r.value("llc.hits"), 42u);
}

TEST(Registry, SamePathEntriesSum)
{
    Registry r;
    std::uint64_t a = 3, b = 4, c = 5;
    r.counters("l1x", {{"hits", a}, {"misses", c}});
    r.counter("l1x.hits", b); // a second frontend's L1X (AUTO)
    EXPECT_EQ(r.value("l1x.hits"), 7u);
    EXPECT_EQ(r.value("l1x.misses"), 5u);
    std::ostringstream os;
    r.dump(os);
    EXPECT_EQ(os.str(), "sim.l1x.hits 7\nsim.l1x.misses 5\n");
}

TEST(RegistryDeathTest, UnknownPathPanics)
{
    Registry r;
    std::uint64_t present = 1;
    r.counter("present", present);
    EXPECT_TRUE(r.has("present"));
    EXPECT_FALSE(r.has("absent"));
    EXPECT_DEATH(r.value("absent"), "no counter at absent");
}

TEST(Registry, HistogramsAreSharedByPath)
{
    Registry r;
    Histogram &h = r.histogram("l1x.fill_latency", 0, 64, 8);
    Histogram &again = r.histogram("l1x.fill_latency", 0, 1024, 32);
    EXPECT_EQ(&h, &again); // the first shape wins
    EXPECT_DOUBLE_EQ(again.bucketHigh(), 64.0);
    EXPECT_FALSE(r.has("l1x.fill_latency")); // not a counter
    EXPECT_EQ(r.paths(), std::vector<std::string>{"l1x.fill_latency"});
}

TEST(Registry, DumpContainsDottedPaths)
{
    Registry r;
    std::uint64_t hits = 42;
    r.counter("llc.hits", hits);
    std::ostringstream os;
    r.dump(os);
    EXPECT_NE(os.str().find("sim.llc.hits 42"), std::string::npos);
}

TEST(Registry, DumpIsInTreeOrder)
{
    // Per dotted level: the group's counters, then its histograms,
    // then its subgroups, each by name.
    Registry r;
    std::uint64_t v = 1;
    r.counter("a.z", v);
    r.counter("a.b.c", v);
    r.counter("a.m", v);
    r.histogram("a.h", 0, 8, 8).sample(2.5);
    r.counter("b", v);
    std::ostringstream os;
    r.dump(os);
    EXPECT_EQ(os.str(), "sim.b 1\n"
                        "sim.a.m 1\n"
                        "sim.a.z 1\n"
                        "sim.a.h.samples 1\n"
                        "sim.a.h.mean 2.5\n"
                        "sim.a.h.min 2.5\n"
                        "sim.a.h.max 2.5\n"
                        "sim.a.b.c 1\n");
}

} // namespace
} // namespace fusion::stats
