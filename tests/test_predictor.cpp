// Unit tests for the seasonal-max demand predictor.

#include "core/predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "trace/patterns.h"
#include "util/rng.h"
#include "util/stats.h"

namespace vmcw {
namespace {

PeakPredictor::Options no_margin() {
  PeakPredictor::Options o;
  o.cpu_safety_margin = 1.0;
  o.mem_safety_margin = 1.0;
  return o;
}

/// The batch call for the single window [hour, hour + len).
double predict_one(const PeakPredictor& p, const TimeSeries& series,
                   std::size_t hour, std::size_t len, double margin) {
  double predicted = -1.0;
  std::vector<double> table;
  p.predict(series, hour, len, margin, std::span(&predicted, 1), table);
  return predicted;
}

TEST(PeakPredictor, UsesSameWindowOnPreviousDays) {
  // Daily pattern: demand 10 except hour 12 of each day = 50.
  std::vector<double> v(24 * 8, 10.0);
  for (std::size_t d = 0; d < 8; ++d) v[d * 24 + 12] = 50.0;
  const TimeSeries series(v);
  const PeakPredictor p(no_margin());
  // Predicting the noon window of day 7 sees day 6's noon spike.
  EXPECT_DOUBLE_EQ(predict_one(p, series, 7 * 24 + 12, 2, 1.0), 50.0);
  // Predicting an off-peak window sees only the base.
  EXPECT_DOUBLE_EQ(predict_one(p, series, 7 * 24 + 2, 2, 1.0), 10.0);
}

TEST(PeakPredictor, UsesImmediatelyPrecedingWindow) {
  // A fresh level shift in the last 2 hours must be picked up.
  std::vector<double> v(48, 10.0);
  v[46] = 80.0;
  v[47] = 80.0;
  const TimeSeries series(v);
  const PeakPredictor p(no_margin());
  EXPECT_DOUBLE_EQ(predict_one(p, series, 48, 2, 1.0), 80.0);
}

TEST(PeakPredictor, CannotSeeTheFuture) {
  std::vector<double> v(24 * 8, 10.0);
  v[7 * 24 + 13] = 99.0;  // spike inside the predicted window itself
  const TimeSeries series(v);
  const PeakPredictor p(no_margin());
  EXPECT_DOUBLE_EQ(predict_one(p, series, 7 * 24 + 12, 2, 1.0), 10.0);
}

TEST(PeakPredictor, LookbackDaysLimit) {
  // Spike 5 days ago; lookback of 3 days must not see it.
  std::vector<double> v(24 * 10, 10.0);
  v[4 * 24 + 12] = 70.0;
  const TimeSeries series(v);
  PeakPredictor::Options o = no_margin();
  o.lookback_days = 3;
  const PeakPredictor p(o);
  EXPECT_DOUBLE_EQ(predict_one(p, series, 9 * 24 + 12, 2, 1.0), 10.0);
  PeakPredictor::Options wide = no_margin();
  wide.lookback_days = 7;
  EXPECT_DOUBLE_EQ(
      predict_one(PeakPredictor(wide), series, 9 * 24 + 12, 2, 1.0), 70.0);
}

TEST(PeakPredictor, SafetyMarginScales) {
  const TimeSeries series(std::vector<double>(72, 10.0));
  const PeakPredictor p(no_margin());
  EXPECT_DOUBLE_EQ(predict_one(p, series, 48, 2, 1.25), 12.5);
}

TEST(PeakPredictor, EarlyHoursWithLittleHistory) {
  const TimeSeries series(std::vector<double>{5, 6, 7, 8});
  const PeakPredictor p(no_margin());
  // hour 2, len 2: no same-window-previous-day, only preceding window {5,6}.
  EXPECT_DOUBLE_EQ(predict_one(p, series, 2, 2, 1.0), 6.0);
  // hour 0: no history at all.
  EXPECT_DOUBLE_EQ(predict_one(p, series, 0, 2, 1.0), 0.0);
}

TEST(PeakPredictor, PredictVmAppliesPerResourceMargins) {
  VmWorkload vm;
  vm.cpu_rpe2 = TimeSeries(std::vector<double>(48, 100.0));
  vm.mem_mb = TimeSeries(std::vector<double>(48, 1000.0));
  PeakPredictor::Options o;
  o.cpu_safety_margin = 1.2;
  o.mem_safety_margin = 1.05;
  VmDemandPredictor p{PeakPredictor(o)};
  p.predict(vm, 26, 2, 1);
  EXPECT_DOUBLE_EQ(p.at(0).cpu_rpe2, 120.0);
  EXPECT_DOUBLE_EQ(p.at(0).memory_mb, 1050.0);
}

// The pointwise seasonal-max rescan the batch call replaced: the reference
// the batch must match bit for bit.
double rescan(const TimeSeries& series, std::size_t hour, std::size_t len,
              int lookback_days, double margin) {
  double estimate = 0.0;
  for (int day = 1; day <= lookback_days; ++day) {
    const std::size_t back = static_cast<std::size_t>(day) * kHoursPerDay;
    if (back > hour) break;
    estimate = std::max(estimate, peak(series.slice(hour - back, len)));
  }
  if (hour >= len)
    estimate = std::max(estimate, peak(series.slice(hour - len, len)));
  return estimate * margin;
}

// Every window length that divides a day or not, starts off the len grid,
// windows running past the end of the series (clamped and empty slices),
// and lookbacks from none to longer than the series.
TEST(PeakPredictor, BatchMatchesPointwise) {
  Rng rng(20141208);
  std::vector<double> samples(200);
  for (double& x : samples) x = std::floor(rng.uniform(0.0, 50.0));
  const TimeSeries series(std::move(samples));
  std::vector<double> table;  // one scratch buffer across every call
  for (int lookback : {0, 1, 7, 30}) {
    PeakPredictor::Options o;
    o.lookback_days = lookback;
    const PeakPredictor p(o);
    for (std::size_t len : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 12u, 24u})
      for (std::size_t begin : {0u, 1u, 25u, 50u, 171u, 199u, 230u}) {
        // Enough windows to run past the series end, and then some.
        const std::size_t count = (series.size() + 40) / len + 2;
        std::vector<double> batch(count);
        p.predict(series, begin, len, 1.1, batch, table);
        for (std::size_t i = 0; i < count; ++i)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(batch[i]),
                    std::bit_cast<std::uint64_t>(
                        rescan(series, begin + i * len, len, lookback, 1.1)))
              << "lookback " << lookback << " len " << len << " begin "
              << begin << " window " << i;
      }
  }
}

TEST(PeakPredictor, DefaultMarginsAreCpuHeavy) {
  const PeakPredictor p;
  EXPECT_GT(p.options().cpu_safety_margin, p.options().mem_safety_margin);
  EXPECT_GE(p.options().mem_safety_margin, 1.0);
}

}  // namespace
}  // namespace vmcw
