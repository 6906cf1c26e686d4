// Unit + property tests for util/distributions.h.

#include "util/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <vector>

#include "util/stats.h"

namespace vmcw {
namespace {

std::vector<double> draw(auto& dist, Rng& rng, int n) {
  std::vector<double> xs(n);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

TEST(Pareto, SamplesAboveScale) {
  Rng rng(1);
  const Pareto p(2.0, 1.5);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(p.sample(rng), 2.0);
}

TEST(Pareto, AnalyticMeanMatchesEmpirical) {
  Rng rng(2);
  const Pareto p(1.0, 3.0);  // mean = 1.5, finite variance
  const auto xs = draw(p, rng, 200000);
  EXPECT_NEAR(mean(xs), p.mean(), 0.02);
}

TEST(Pareto, InfiniteMeanForSmallAlpha) {
  const Pareto p(1.0, 0.9);
  EXPECT_TRUE(std::isinf(p.mean()));
}

TEST(Pareto, HeavyTailHasLargeSamples) {
  Rng rng(3);
  const Pareto p(1.0, 1.1);
  double biggest = 0;
  for (int i = 0; i < 100000; ++i) biggest = std::max(biggest, p.sample(rng));
  EXPECT_GT(biggest, 100.0);  // alpha=1.1 virtually guarantees huge draws
}

TEST(BoundedPareto, RespectsBothBounds) {
  Rng rng(4);
  const BoundedPareto p(1.0, 1.3, 20.0);
  for (int i = 0; i < 20000; ++i) {
    const double x = p.sample(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 20.0);
  }
}

TEST(BoundedPareto, DegenerateBoundsCollapse) {
  Rng rng(5);
  const BoundedPareto p(3.0, 2.0, 3.0);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(p.sample(rng), 3.0);
}

struct MeanCov {
  double mean;
  double cov;
};

// Names each case without spaces ("mean0.05_cov1"), so the test ids that
// gtest_discover_tests derives from it match `ctest -N`.
void PrintTo(const MeanCov& c, std::ostream* os) {
  *os << "mean" << c.mean << "_cov" << c.cov;
}

class LognormalRoundtrip : public ::testing::TestWithParam<MeanCov> {};

TEST_P(LognormalRoundtrip, RecoverMeanAndCov) {
  const auto [target_mean, target_cov] = GetParam();
  Rng rng(6);
  const auto dist = Lognormal::from_mean_cov(target_mean, target_cov);
  const auto xs = draw(dist, rng, 400000);
  EXPECT_NEAR(mean(xs) / target_mean, 1.0, 0.03);
  if (target_cov > 0) {
    EXPECT_NEAR(coefficient_of_variation(xs) / target_cov, 1.0, 0.08);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LognormalRoundtrip,
                         ::testing::Values(MeanCov{1.0, 0.2}, MeanCov{1.0, 0.5},
                                           MeanCov{0.05, 1.0},
                                           MeanCov{10.0, 0.8},
                                           MeanCov{3.0, 1.5}));

TEST(Lognormal, ZeroCovIsDegenerate) {
  Rng rng(7);
  const auto dist = Lognormal::from_mean_cov(4.0, 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_NEAR(dist.sample(rng), 4.0, 1e-9);
}

TEST(Lognormal, AlwaysPositive) {
  Rng rng(8);
  const auto dist = Lognormal::from_mean_cov(0.01, 2.0);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(dist.sample(rng), 0.0);
}

TEST(TruncatedNormal, StaysInBounds) {
  Rng rng(9);
  const TruncatedNormal dist(0.5, 0.3, 0.2, 0.8);
  for (int i = 0; i < 20000; ++i) {
    const double x = dist.sample(rng);
    EXPECT_GE(x, 0.2);
    EXPECT_LE(x, 0.8);
  }
}

TEST(TruncatedNormal, MeanApproximatelyCenter) {
  Rng rng(10);
  const TruncatedNormal dist(0.5, 0.1, 0.0, 1.0);
  const auto xs = draw(dist, rng, 50000);
  EXPECT_NEAR(mean(xs), 0.5, 0.01);
}

TEST(TruncatedNormal, FarOutMeanClampsToBound) {
  Rng rng(11);
  // Mean far above the interval: rejection gives up and clamps.
  const TruncatedNormal dist(10.0, 0.1, 0.0, 1.0);
  for (int i = 0; i < 100; ++i) {
    const double x = dist.sample(rng);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(TruncatedNormal, ZeroSigmaIsDeterministic) {
  Rng rng(12);
  const TruncatedNormal dist(0.4, 0.0, 0.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(dist.sample(rng), 0.4);
}

TEST(Exponential, MeanIsInverseRate) {
  Rng rng(13);
  const Exponential dist(0.25);
  const auto xs = draw(dist, rng, 200000);
  EXPECT_NEAR(mean(xs), 4.0, 0.05);
}

TEST(Exponential, AlwaysNonNegative) {
  Rng rng(14);
  const Exponential dist(2.0);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(dist.sample(rng), 0.0);
}

}  // namespace
}  // namespace vmcw
