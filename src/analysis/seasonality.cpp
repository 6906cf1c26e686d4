#include "analysis/seasonality.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "trace/patterns.h"
#include "util/stats.h"

namespace vmcw {

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  if (xs.size() < lag + 2) return 0.0;
  const double m = mean(xs);
  double num = 0.0, den = 0.0;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    const double d = xs[t] - m;
    den += d * d;
    if (t + lag < xs.size()) num += d * (xs[t + lag] - m);
  }
  if (den < 1e-12) return 0.0;
  // Length-normalized estimator: a perfectly periodic series scores ~1 at
  // its period regardless of how many periods the sample covers.
  const auto n = static_cast<double>(xs.size());
  const auto overlap = static_cast<double>(xs.size() - lag);
  return (num / overlap) / (den / n);
}

SeasonalityProfile seasonality_profile(const TimeSeries& series) {
  SeasonalityProfile profile;
  profile.daily_acf = autocorrelation(series.samples(), kHoursPerDay);
  profile.weekly_acf = autocorrelation(series.samples(), kHoursPerWeek);

  // Diurnal strength: variance of the mean hour-of-day profile over total
  // variance (a one-way ANOVA R^2 with hour-of-day as the factor).
  if (series.size() >= 2 * kHoursPerDay) {
    double hour_mean[kHoursPerDay] = {};
    std::size_t hour_count[kHoursPerDay] = {};
    for (std::size_t t = 0; t < series.size(); ++t) {
      hour_mean[hour_of_day(t)] += series[t];
      ++hour_count[hour_of_day(t)];
    }
    for (std::size_t h = 0; h < kHoursPerDay; ++h)
      if (hour_count[h] > 0)
        hour_mean[h] /= static_cast<double>(hour_count[h]);

    const double total_mean = mean(series.samples());
    double between = 0.0, total = 0.0;
    for (std::size_t t = 0; t < series.size(); ++t) {
      const double d = series[t] - total_mean;
      total += d * d;
      const double b = hour_mean[hour_of_day(t)] - total_mean;
      between += b * b;
    }
    profile.diurnal_strength = total > 1e-12 ? between / total : 0.0;
  }
  return profile;
}

PredictabilityReport predictability(const TimeSeries& series,
                                    std::size_t begin, std::size_t len,
                                    std::size_t window_hours,
                                    const PeakPredictor& predictor,
                                    double safety_margin) {
  PredictabilityReport report;
  if (window_hours == 0) return report;
  // Whole windows inside both [begin, begin + len) and the series.
  const std::size_t end = std::min(begin + len, series.size());
  std::vector<double> predictions(end > begin ? (end - begin) / window_hours
                                              : 0);
  std::vector<double> table;
  predictor.predict(series, begin, window_hours, safety_margin, predictions,
                    table);
  double shortfall_sum = 0.0;
  std::size_t misses = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const double predicted = predictions[i];
    const double actual =
        peak(series.slice(begin + i * window_hours, window_hours));
    ++report.windows;
    if (actual > predicted) {
      ++misses;
      if (predicted > 1e-12)
        shortfall_sum += (actual - predicted) / predicted;
    }
  }
  if (report.windows > 0) {
    report.hit_rate = 1.0 - static_cast<double>(misses) /
                                static_cast<double>(report.windows);
  }
  report.mean_miss_shortfall =
      misses > 0 ? shortfall_sum / static_cast<double>(misses) : 0.0;
  return report;
}

FleetPredictability fleet_predictability(const Datacenter& dc,
                                         std::size_t begin, std::size_t len,
                                         std::size_t window_hours) {
  FleetPredictability fleet;
  if (dc.servers.empty()) return fleet;
  const PeakPredictor predictor;
  for (const auto& server : dc.servers) {
    const auto profile = seasonality_profile(server.cpu_util);
    fleet.mean_daily_acf += profile.daily_acf;
    fleet.mean_diurnal_strength += profile.diurnal_strength;
    const auto report =
        predictability(server.cpu_util, begin, len, window_hours, predictor);
    fleet.mean_hit_rate += report.hit_rate;
    fleet.mean_miss_shortfall += report.mean_miss_shortfall;
  }
  const auto n = static_cast<double>(dc.servers.size());
  fleet.mean_daily_acf /= n;
  fleet.mean_diurnal_strength /= n;
  fleet.mean_hit_rate /= n;
  fleet.mean_miss_shortfall /= n;
  return fleet;
}

}  // namespace vmcw
