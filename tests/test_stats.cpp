// Unit tests for util/stats.h.

#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace vmcw {
namespace {

const std::vector<double> kEmpty;
const std::vector<double> kSingle{4.0};
const std::vector<double> kRamp{1, 2, 3, 4, 5};

TEST(Mean, KnownValues) {
  EXPECT_DOUBLE_EQ(mean(kEmpty), 0.0);
  EXPECT_DOUBLE_EQ(mean(kSingle), 4.0);
  EXPECT_DOUBLE_EQ(mean(kRamp), 3.0);
}

TEST(Peak, KnownValues) {
  EXPECT_DOUBLE_EQ(peak(kEmpty), 0.0);
  EXPECT_DOUBLE_EQ(peak(kRamp), 5.0);
  const std::vector<double> negatives{-5, -2, -9};
  EXPECT_DOUBLE_EQ(peak(negatives), -2.0);  // not clamped to 0
}

TEST(Minimum, KnownValues) {
  EXPECT_DOUBLE_EQ(minimum(kEmpty), 0.0);
  EXPECT_DOUBLE_EQ(minimum(kRamp), 1.0);
  const std::vector<double> negatives{-5, -2, -9};
  EXPECT_DOUBLE_EQ(minimum(negatives), -9.0);
}

TEST(Stddev, KnownValues) {
  EXPECT_DOUBLE_EQ(stddev(kEmpty), 0.0);
  EXPECT_DOUBLE_EQ(stddev(kSingle), 0.0);
  EXPECT_NEAR(stddev(kRamp), std::sqrt(2.0), 1e-12);  // population stddev
  const std::vector<double> constant{7, 7, 7, 7};
  EXPECT_DOUBLE_EQ(stddev(constant), 0.0);
}

TEST(CoV, KnownValues) {
  EXPECT_DOUBLE_EQ(coefficient_of_variation(kEmpty), 0.0);
  EXPECT_NEAR(coefficient_of_variation(kRamp), std::sqrt(2.0) / 3.0, 1e-12);
  const std::vector<double> zeros{0, 0, 0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(zeros), 0.0);  // no div by 0
}

TEST(PeakToAverage, KnownValues) {
  EXPECT_DOUBLE_EQ(peak_to_average(kEmpty), 0.0);
  EXPECT_DOUBLE_EQ(peak_to_average(kRamp), 5.0 / 3.0);
  const std::vector<double> constant{2, 2, 2};
  EXPECT_DOUBLE_EQ(peak_to_average(constant), 1.0);
}

TEST(Percentile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(percentile(kRamp, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(kRamp, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(kRamp, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(kRamp, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(kRamp, 90), 4.6);
}

TEST(Percentile, UnsortedInputHandled) {
  const std::vector<double> shuffled{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(shuffled, 50), 3.0);
}

TEST(Percentile, EdgeCases) {
  EXPECT_DOUBLE_EQ(percentile(kEmpty, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile(kSingle, 50), 4.0);
  EXPECT_DOUBLE_EQ(percentile(kRamp, -10), 1.0);   // clamped
  EXPECT_DOUBLE_EQ(percentile(kRamp, 110), 5.0);   // clamped
}

TEST(PercentileSorted, MatchesPercentile) {
  const std::vector<double> sorted{1, 2, 3, 4, 5};
  for (double p : {0.0, 10.0, 33.0, 50.0, 77.7, 100.0})
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, p), percentile(sorted, p));
}

// percentile() selects its two order statistics instead of sorting; the
// result must be the very double percentile_sorted gives on a sorted copy.
// Few distinct values make ties around both order statistics common.
TEST(Percentile, SelectionMatchesFullSort) {
  Rng rng(7);
  for (std::size_t n = 0; n <= 257; ++n) {
    std::vector<double> xs(n);
    for (double& x : xs)
      x = static_cast<double>(rng.uniform_int(0, 9)) * 0.3 +
          (rng.uniform() < 0.1 ? rng.uniform(0.0, 1.0) : 0.0);
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 1e-9, 10.0, 50.0, 90.0, 95.0, 99.0, 99.999, 100.0})
      ASSERT_EQ(std::bit_cast<std::uint64_t>(percentile(xs, p)),
                std::bit_cast<std::uint64_t>(percentile_sorted(sorted, p)))
          << "n " << n << " p " << p;
  }
}

TEST(PearsonCorrelation, PerfectCorrelations) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  const std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(x, z), -1.0, 1e-12);
}

TEST(PearsonCorrelation, DegenerateInputs) {
  const std::vector<double> x{1, 2, 3};
  const std::vector<double> constant{5, 5, 5};
  const std::vector<double> shorter{1, 2};
  EXPECT_DOUBLE_EQ(pearson_correlation(x, constant), 0.0);
  EXPECT_DOUBLE_EQ(pearson_correlation(x, shorter), 0.0);
  EXPECT_DOUBLE_EQ(pearson_correlation(kEmpty, kEmpty), 0.0);
}

TEST(Summarize, FieldsConsistent) {
  const auto s = summarize(kRamp);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_GE(s.p90, s.p50);
  EXPECT_GE(s.p99, s.p90);
}

TEST(Summarize, Empty) {
  const auto s = summarize(kEmpty);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(ElementwiseSum, RaggedSeriesZeroPadded) {
  const std::vector<std::vector<double>> series{{1, 2, 3}, {10, 20}, {100}};
  const auto total = elementwise_sum(series);
  ASSERT_EQ(total.size(), 3u);
  EXPECT_DOUBLE_EQ(total[0], 111.0);
  EXPECT_DOUBLE_EQ(total[1], 22.0);
  EXPECT_DOUBLE_EQ(total[2], 3.0);
}

TEST(ElementwiseSum, EmptyInput) {
  EXPECT_TRUE(elementwise_sum({}).empty());
}

}  // namespace
}  // namespace vmcw
