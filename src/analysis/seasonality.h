// Seasonality and predictability analysis.
//
// The paper's conclusion hinges on predictability: "Highly bursty and
// predictable workloads ... can benefit from dynamic consolidation"
// (Section 8). These helpers quantify both halves for a demand series:
// autocorrelation at the daily and weekly lags (how seasonal is the
// demand?), and the hit rate of the seasonal-max predictor (how often does
// prediction actually cover realized demand?).
#pragma once

#include <cstddef>
#include <span>

#include "analysis/predictor.h"
#include "trace/server_trace.h"
#include "trace/time_series.h"

namespace vmcw {

/// Sample autocorrelation of the series at a lag; 0 for degenerate input
/// (shorter than lag+2 samples, or constant).
double autocorrelation(std::span<const double> xs, std::size_t lag);

struct SeasonalityProfile {
  double daily_acf = 0;   ///< autocorrelation at lag 24 h
  double weekly_acf = 0;  ///< autocorrelation at lag 168 h
  /// Share of total variance explained by the mean daily profile
  /// (between-hours-of-day variance / total variance), in [0, 1].
  double diurnal_strength = 0;
};

SeasonalityProfile seasonality_profile(const TimeSeries& series);

/// Predictability under the dynamic planner's own predictor: the fraction
/// of consolidation windows in [begin, begin+len) whose realized peak was
/// covered by the prediction made at window start ("hit"), plus the mean
/// relative shortfall of the misses.
struct PredictabilityReport {
  std::size_t windows = 0;
  double hit_rate = 0;
  double mean_miss_shortfall = 0;  ///< mean (actual-pred)/pred over misses
};

PredictabilityReport predictability(const TimeSeries& series,
                                    std::size_t begin, std::size_t len,
                                    std::size_t window_hours,
                                    const PeakPredictor& predictor = {},
                                    double safety_margin = 1.0);

/// Fleet-level averages of the above (CPU series of every server).
struct FleetPredictability {
  double mean_daily_acf = 0;
  double mean_diurnal_strength = 0;
  double mean_hit_rate = 0;
  /// How badly the misses miss: fleet mean of per-server mean relative
  /// shortfall ((actual-pred)/pred on missed windows).
  double mean_miss_shortfall = 0;
};

FleetPredictability fleet_predictability(const Datacenter& dc,
                                         std::size_t begin, std::size_t len,
                                         std::size_t window_hours);

}  // namespace vmcw
