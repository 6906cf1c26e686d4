// Demand prediction for dynamic consolidation.
//
// A dynamic consolidator cannot see the interval it is about to plan; it
// sizes each VM at the *estimated* peak demand of the coming consolidation
// window (Section 5.1). The estimator here is the standard seasonal-max
// predictor used by the paper's tool family: the maximum of (a) the demand
// observed in the same window on each of the previous `lookback_days` days
// (captures diurnal/weekly seasonality) and (b) the immediately preceding
// window (captures level shifts), scaled by a safety margin. Unpredictable
// heavy-tailed spikes — Banking's defining trait — are exactly what this
// cannot foresee, which is how dynamic consolidation ends up with the
// contention of Figs 8-9.
//
// Planners predict every consolidation window of a series at once, so the
// one entry point is a batch call over `count` consecutive `len`-hour
// windows. It first builds a window-peak table: the peak() of every
// `len`-window whose start lies on the grid of step gcd(len, 24) through
// `begin` (step `len` when there is no lookback). Window i starts at
// begin + i*len, and every window a prediction reads starts a whole number
// of days or one `len` before that, so it lies on the grid. Each prediction
// then folds at most lookback_days + 1 table entries with std::max from
// 0.0, in the same order as a per-window rescan, and applies the margin
// last. Because every read lies on the grid, no read divides: window i's
// own start is entry (begin - lo) / step + i * (len / step), where lo is
// the first read, and a read d days or one window back is d * (24 / step)
// or len / step entries before that. The entries are the same peak() of
// the same clamped slices, and max is exact, so every prediction is the
// same double a rescan gives.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "trace/time_series.h"

namespace vmcw {

class PeakPredictor {
 public:
  struct Options {
    int lookback_days = 7;
    /// Headroom multipliers applied to the estimate. Production dynamic
    /// consolidators never size at the raw point prediction; pMapper-family
    /// tools add ~10% buffer against estimation error. Memory needs far
    /// less: Section 4 shows it is an order of magnitude less bursty.
    double cpu_safety_margin = 1.10;
    double mem_safety_margin = 1.03;
  };

  PeakPredictor() noexcept : PeakPredictor(Options{}) {}
  explicit PeakPredictor(Options options) noexcept : options_(options) {}

  /// Predicted peaks of `out.size()` consecutive windows of `series`:
  /// out[i] is the estimate for [begin + i*len, begin + (i+1)*len), scaled
  /// by `safety_margin`. `table` is scratch for the window-peak table; it
  /// is overwritten, so one buffer serves any number of calls.
  void predict(const TimeSeries& series, std::size_t begin, std::size_t len,
               double safety_margin, std::span<double> out,
               std::vector<double>& table) const;

  const Options& options() const noexcept { return options_; }

 private:
  Options options_;
};

}  // namespace vmcw
