#include "analysis/predictor.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "trace/patterns.h"
#include "util/stats.h"

namespace vmcw {

void PeakPredictor::predict(const TimeSeries& series, std::size_t begin,
                            std::size_t len, double safety_margin,
                            std::span<double> out,
                            std::vector<double>& table) const {
  if (len == 0) {  // every window is empty
    std::fill(out.begin(), out.end(), 0.0 * safety_margin);
    return;
  }
  const std::size_t days =
      static_cast<std::size_t>(std::max(options_.lookback_days, 0));
  const std::size_t step = days > 0 ? std::gcd(len, kHoursPerDay) : len;
  // Window i reads the windows starting at hour - d*24 (d = 1..days, while
  // d*24 <= hour) and at hour - len (when hour >= len), hour = begin + i*len.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t lo = kNone;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t hour = begin + i * len;
    const std::size_t back = std::min(days, hour / kHoursPerDay);
    if (back > 0) lo = std::min(lo, hour - back * kHoursPerDay);
    if (hour >= len) lo = std::min(lo, hour - len);
  }
  // Every read starts before the last window, so the table ends there.
  table.clear();
  if (lo != kNone)
    for (std::size_t start = lo; start < begin + (out.size() - 1) * len;
         start += step)
      table.push_back(peak(series.slice(start, len)));
  // `at` is the table index of window i's own start. lo <= begin whenever
  // anything is read; otherwise no entry is read.
  const std::size_t per_window = len / step;
  const std::size_t per_day = kHoursPerDay / step;
  std::size_t at = lo != kNone ? (begin - lo) / step : 0;

  for (std::size_t i = 0; i < out.size(); ++i, at += per_window) {
    const std::size_t hour = begin + i * len;
    double estimate = 0.0;
    // Same window on previous days.
    for (std::size_t day = 1; day <= days; ++day) {
      if (day * kHoursPerDay > hour) break;
      estimate = std::max(estimate, table[at - day * per_day]);
    }
    // Immediately preceding window.
    if (hour >= len) estimate = std::max(estimate, table[at - per_window]);
    out[i] = estimate * safety_margin;
  }
}

}  // namespace vmcw
