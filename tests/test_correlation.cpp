// Unit tests for the PCP substrate: body/tail, peak signatures, clustering.

#include "analysis/correlation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "trace/generator.h"
#include "trace/patterns.h"
#include "trace/presets.h"

namespace vmcw {
namespace {

TEST(BodyTail, KnownDecomposition) {
  const std::vector<double> demand{1, 1, 1, 1, 1, 1, 1, 1, 1, 10};
  const auto bt = body_tail(demand, 90.0);
  // Linear-interpolation 90th percentile: rank 8.1 between 1 and 10 = 1.9.
  EXPECT_NEAR(bt.body, 1.9, 1e-9);
  EXPECT_NEAR(bt.body + bt.tail, 10.0, 1e-9);
}

TEST(BodyTail, MaxPercentileHasZeroTail) {
  const std::vector<double> demand{3, 7, 5};
  const auto bt = body_tail(demand, 100.0);
  EXPECT_DOUBLE_EQ(bt.body, 7.0);
  EXPECT_DOUBLE_EQ(bt.tail, 0.0);
}

TEST(BodyTail, EmptyInput) {
  const auto bt = body_tail({});
  EXPECT_DOUBLE_EQ(bt.body, 0.0);
  EXPECT_DOUBLE_EQ(bt.tail, 0.0);
}

TEST(PeakSignature, MarksBucketsAboveBody) {
  // 2 days; exceed body only during hours 8-11 each day.
  std::vector<double> v(48, 1.0);
  for (std::size_t d = 0; d < 2; ++d)
    for (std::size_t h = 8; h < 12; ++h) v[d * 24 + h] = 5.0;
  const auto sig = peak_signature(v, /*body=*/2.0,
                                  /*bucket_hours=*/4);
  ASSERT_EQ(sig.size(), 6u);
  EXPECT_DOUBLE_EQ(sig[2], 1.0);  // bucket for hours 8-11
  for (std::size_t b : {0u, 1u, 3u, 4u, 5u}) EXPECT_DOUBLE_EQ(sig[b], 0.0);
}

TEST(PeakSignature, FractionalOccupancy) {
  // Exceeds body in hours 8-11 on day 1 only, of 2 days.
  std::vector<double> v(48, 1.0);
  for (std::size_t h = 8; h < 12; ++h) v[h] = 5.0;
  const auto sig = peak_signature(v, 2.0, 4);
  EXPECT_DOUBLE_EQ(sig[2], 0.5);
}

TEST(PeakSignature, BucketSizeClamped) {
  const auto sig = peak_signature(std::vector<double>(24, 1.0),
                                  0.5, 100);
  EXPECT_EQ(sig.size(), 1u);
  EXPECT_DOUBLE_EQ(sig[0], 1.0);  // everything above body 0.5
}

TEST(SignatureSimilarity, CosineProperties) {
  const std::vector<double> a{1, 0, 0};
  const std::vector<double> b{0, 1, 0};
  const std::vector<double> c{2, 0, 0};
  EXPECT_DOUBLE_EQ(signature_similarity(a, b), 0.0);
  EXPECT_NEAR(signature_similarity(a, c), 1.0, 1e-12);
  const std::vector<double> empty;
  const std::vector<double> zeros{0, 0, 0};
  EXPECT_DOUBLE_EQ(signature_similarity(a, empty), 0.0);
  EXPECT_DOUBLE_EQ(signature_similarity(zeros, a), 0.0);
}

TEST(ClusterSignatures, GroupsSimilarSeparatesOrthogonal) {
  const std::vector<std::vector<double>> sigs{
      {1, 0, 0, 0}, {0.9, 0.1, 0, 0},  // morning peakers
      {0, 0, 1, 0}, {0, 0, 0.8, 0.2},  // afternoon peakers
  };
  const auto clusters = cluster_signatures(sigs, 0.6);
  ASSERT_EQ(clusters.size(), 4u);
  EXPECT_EQ(clusters[0], clusters[1]);
  EXPECT_EQ(clusters[2], clusters[3]);
  EXPECT_NE(clusters[0], clusters[2]);
}

TEST(ClusterSignatures, ThresholdOneSeparatesAll) {
  const std::vector<std::vector<double>> sigs{
      {1, 0}, {0.9, 0.1}, {0.8, 0.2}};
  const auto clusters = cluster_signatures(sigs, 1.01);
  EXPECT_NE(clusters[0], clusters[1]);
  EXPECT_NE(clusters[1], clusters[2]);
}

TEST(ClusterSignatures, ThresholdZeroMergesAll) {
  const std::vector<std::vector<double>> sigs{{1, 0}, {0, 1}, {0.5, 0.5}};
  const auto clusters = cluster_signatures(sigs, -0.1);
  EXPECT_EQ(clusters[0], clusters[1]);
  EXPECT_EQ(clusters[1], clusters[2]);
}

TEST(ClusterSignatures, DenseIdsFromZero) {
  const std::vector<std::vector<double>> sigs{{1, 0}, {0, 1}, {1, 0}};
  const auto clusters = cluster_signatures(sigs, 0.6);
  EXPECT_EQ(clusters[0], 0u);
  EXPECT_EQ(clusters[1], 1u);
  EXPECT_EQ(clusters[2], 0u);
}

TEST(CorrelationStability, StationaryPairsShowNoDrift) {
  // Periodic series whose relationship is identical in both halves.
  std::vector<std::vector<double>> series(3);
  for (std::size_t t = 0; t < 200; ++t) {
    const double a = std::sin(t * 0.3);
    series[0].push_back(a);
    series[1].push_back(a * 2.0 + 1.0);   // perfectly correlated
    series[2].push_back(-a);              // perfectly anti-correlated
  }
  const auto s = correlation_stability(series);
  EXPECT_EQ(s.pairs, 3u);
  EXPECT_NEAR(s.mean_abs_drift, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.sign_flip_fraction, 0.0);
}

TEST(CorrelationStability, RegimeChangeDetected) {
  // Two series correlated in the first half, anti-correlated in the second.
  std::vector<std::vector<double>> series(2);
  for (std::size_t t = 0; t < 100; ++t) {
    const double a = std::sin(t * 0.5);
    series[0].push_back(a);
    series[1].push_back(t < 50 ? a : -a);
  }
  const auto s = correlation_stability(series);
  EXPECT_GT(s.mean_abs_drift, 1.5);  // +1 -> -1 is a drift of 2
  EXPECT_DOUBLE_EQ(s.sign_flip_fraction, 1.0);
}

TEST(CorrelationStability, DegenerateInputs) {
  EXPECT_EQ(correlation_stability({}).pairs, 0u);
  const std::vector<std::vector<double>> one{{1, 2, 3}};
  EXPECT_EQ(correlation_stability(one).pairs, 0u);
}

TEST(CorrelationStability, GeneratedEstateIsStable) {
  // Observation 5's premise on our own synthetic Banking estate.
  const auto dc = generate_datacenter(
      scaled_down(banking_spec(), 40, kHoursPerMonth), kStudySeed);
  std::vector<std::vector<double>> series;
  for (const auto& s : dc.servers)
    series.push_back(s.cpu_util.window_reduce(2, WindowReducer::kMean));
  const auto stability = correlation_stability(series);
  EXPECT_LT(stability.mean_abs_drift, 0.2);
  EXPECT_LT(stability.sign_flip_fraction, 0.05);
}

TEST(CorrelationMatrix, SymmetricWithUnitDiagonal) {
  const std::vector<std::vector<double>> series{
      {1, 2, 3, 4}, {2, 4, 6, 8}, {4, 3, 2, 1}};
  const auto m = correlation_matrix(series);
  ASSERT_EQ(m.size(), 9u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(m[i * 3 + i], 1.0);
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(m[i * 3 + j], m[j * 3 + i]);
  }
  EXPECT_NEAR(m[0 * 3 + 1], 1.0, 1e-12);
  EXPECT_NEAR(m[0 * 3 + 2], -1.0, 1e-12);
}

}  // namespace
}  // namespace vmcw
