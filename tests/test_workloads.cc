/**
 * @file
 * Workload tests: every benchmark builds (passing its internal
 * golden self-check), produces a well-formed trace, and exhibits
 * the qualitative properties Table 1 rests on (function counts,
 * inter-accelerator sharing, op mixes).
 */

#include <gtest/gtest.h>

#include "trace/analysis.hh"
#include "workloads/workload.hh"

namespace fusion::workloads
{
namespace
{

TEST(Workloads, RegistryListsTheSevenBenchmarks)
{
    auto names = workloadNames();
    ASSERT_EQ(names.size(), 7u);
    for (const auto &n : names)
        EXPECT_NE(makeWorkload(n), nullptr) << n;
    EXPECT_EQ(makeWorkload("nope"), nullptr);
}

struct ExpectedShape
{
    const char *name;
    std::size_t functions;
    std::size_t minInvocations;
};

// gtest's default printer dumps the struct's bytes, name pointer
// included; the ctest name embeds the printed value, so it would
// change with every build's load address.
void PrintTo(const ExpectedShape &e, std::ostream *os)
{
    *os << "{" << e.name << ", " << e.functions << ", "
        << e.minInvocations << "}";
}

class WorkloadShape : public ::testing::TestWithParam<ExpectedShape>
{
};

TEST_P(WorkloadShape, BuildsAndSelfChecks)
{
    const auto &e = GetParam();
    auto w = makeWorkload(e.name);
    ASSERT_NE(w, nullptr);
    // build() panics if the golden check fails, so reaching the
    // assertions below implies numerical correctness.
    trace::Program p = w->build(Scale::Small);
    EXPECT_EQ(p.functions.size(), e.functions);
    EXPECT_GE(p.invocations.size(), e.minInvocations);
    EXPECT_GT(p.memOpCount(), 0u);
    EXPECT_FALSE(p.hostInit.empty());
    EXPECT_FALSE(p.hostFinal.empty());
    // Every invocation references a declared function.
    for (const auto &inv : p.invocations) {
        ASSERT_GE(inv.func, 0);
        ASSERT_LT(static_cast<std::size_t>(inv.func),
                  p.functions.size());
    }
    // Function metadata is sane.
    for (const auto &f : p.functions) {
        EXPECT_GT(f.mlp, 0u);
        EXPECT_GT(f.leaseTime, 0u);
        EXPECT_LT(static_cast<std::uint32_t>(f.accel),
                  p.accelCount());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadShape,
    ::testing::Values(ExpectedShape{"fft", 6, 7},
                      ExpectedShape{"disparity", 5, 10},
                      ExpectedShape{"tracking", 3, 4},
                      ExpectedShape{"adpcm", 2, 2},
                      ExpectedShape{"susan", 4, 4},
                      ExpectedShape{"filter", 2, 2},
                      ExpectedShape{"histogram", 4, 4}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(Workloads, DeterministicTraces)
{
    auto w = makeWorkload("adpcm");
    trace::Program a = w->build(Scale::Small);
    trace::Program b = w->build(Scale::Small);
    ASSERT_EQ(a.invocations.size(), b.invocations.size());
    ASSERT_EQ(a.memOpCount(), b.memOpCount());
    for (std::size_t i = 0; i < a.invocations.size(); ++i) {
        const auto &ia = a.invocations[i].ops;
        const auto &ib = b.invocations[i].ops;
        ASSERT_EQ(ia.size(), ib.size());
        for (std::size_t j = 0; j < ia.size(); j += 97)
            EXPECT_EQ(ia[j].addr, ib[j].addr);
    }
}

TEST(Workloads, SharingDegreeIsSubstantial)
{
    // Table 1: apart from initialization functions, the average
    // sharing degree is ~50%. Check the flagship sharers.
    for (const char *name : {"adpcm", "tracking"}) {
        auto p = makeWorkload(name)->build(Scale::Small);
        auto profs = trace::profileFunctions(p);
        double best = 0;
        for (const auto &f : profs)
            best = std::max(best, f.sharePct);
        EXPECT_GE(best, 50.0) << name;
    }
}

TEST(Workloads, AdpcmIsIntegerOnly)
{
    auto p = makeWorkload("adpcm")->build(Scale::Small);
    for (const auto &f : trace::profileFunctions(p)) {
        EXPECT_DOUBLE_EQ(f.pctFp, 0.0) << f.name;
        EXPECT_GT(f.pctInt, 30.0) << f.name;
    }
}

TEST(Workloads, HistogramConversionIsFpHeavy)
{
    auto p = makeWorkload("histogram")->build(Scale::Small);
    auto profs = trace::profileFunctions(p);
    // rgb2hsl / hsl2rgb dominated by FP (Table 1: 51.8 / 40.8).
    EXPECT_GT(profs[0].pctFp, 30.0);
    EXPECT_GT(profs[3].pctFp, 30.0);
    // histogram/equalize are integer + load dominated.
    EXPECT_LT(profs[1].pctFp, 20.0);
}

TEST(Workloads, PaperScaleFootprintsLandInTable6dRegime)
{
    // The relative ordering the evaluation depends on: HIST is by
    // far the biggest; TRACK > DISP > FFT; ADPCM/SUSAN/FILT are
    // small (< ~40 kB).
    std::map<std::string, double> kb;
    for (const auto &n : workloadNames()) {
        auto p = makeWorkload(n)->build(Scale::Paper);
        kb[n] = trace::workingSet(p).kilobytes();
    }
    EXPECT_GT(kb["histogram"], 800.0);
    EXPECT_GT(kb["tracking"], 250.0);
    EXPECT_GT(kb["disparity"], 60.0);
    EXPECT_LT(kb["adpcm"], 40.0);
    EXPECT_LT(kb["susan"], 40.0);
    EXPECT_LT(kb["filter"], 40.0);
    EXPECT_GT(kb["histogram"], kb["tracking"]);
    EXPECT_GT(kb["tracking"], kb["disparity"]);
    EXPECT_GT(kb["disparity"], kb["fft"]);
}

TEST(Workloads, EveryFunctionIsExercised)
{
    for (const auto &n : workloadNames()) {
        auto p = makeWorkload(n)->build(Scale::Small);
        std::vector<bool> seen(p.functions.size(), false);
        for (const auto &inv : p.invocations)
            seen[static_cast<std::size_t>(inv.func)] = true;
        for (std::size_t f = 0; f < seen.size(); ++f)
            EXPECT_TRUE(seen[f])
                << n << ":" << p.functions[f].name;
    }
}

} // namespace
} // namespace fusion::workloads
