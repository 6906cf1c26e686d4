// Hourly resource-usage time series.
//
// The paper's data warehouse stores hourly averages of per-minute monitoring
// samples for the most recent 30 days (720 samples). TimeSeries is that
// object: a fixed-interval sample vector with the window-statistics
// operations consolidation planning needs (peak/mean/percentile over
// consolidation windows of 1, 2, 4, ... hours).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace vmcw {

/// Reduction applied to the samples inside one consolidation window when
/// converting a trace into one demand value per window ("sizing function"
/// in the paper's terminology — Section 2.1).
enum class WindowReducer {
  kMax,   ///< peak demand in the window (static/dynamic sizing)
  kMean,  ///< average demand (the theoretical optimum dynamic sizing)
  kP90,   ///< 90th percentile ("body" of the PCP stochastic sizing)
  kP95,
};

double reduce(std::span<const double> window, WindowReducer reducer);

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::vector<double> samples);
  static TimeSeries zeros(std::size_t n);

  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  double operator[](std::size_t i) const noexcept { return samples_[i]; }
  double& operator[](std::size_t i) noexcept { return samples_[i]; }

  std::span<const double> samples() const noexcept { return samples_; }

  /// Clamped sub-range view: [begin, begin+len) intersected with the series.
  std::span<const double> slice(std::size_t begin,
                                std::size_t len) const noexcept {
    if (begin >= samples_.size()) return {};
    len = std::min(len, samples_.size() - begin);
    return std::span<const double>(samples_).subspan(begin, len);
  }

  /// Last n samples (all samples if n >= size).
  TimeSeries tail(std::size_t n) const;

  /// Scale every sample by k, in place.
  void scale(double k) noexcept;

  /// Split the series into consecutive windows of `window_hours` samples and
  /// reduce each window to one value. A trailing partial window is reduced
  /// too. Empty result for an empty series or window_hours == 0.
  std::vector<double> window_reduce(std::size_t window_hours,
                                    WindowReducer reducer) const;

  // Whole-series statistics (thin wrappers over util/stats.h).
  double mean() const noexcept;
  double peak() const noexcept;
  double stddev() const noexcept;
  double cov() const noexcept;               ///< coefficient of variation
  double peak_to_average() const noexcept;
  double percentile(double p) const;

 private:
  std::vector<double> samples_;
};

}  // namespace vmcw
