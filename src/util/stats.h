// Descriptive statistics over sample vectors.
//
// The paper's trace analysis (Section 4) is built from four primitives:
// mean, peak, percentile, and coefficient of variation. These helpers
// operate on std::span<const double> so callers can pass TimeSeries data,
// window slices, or raw vectors without copies.
#pragma once

#include <span>
#include <vector>

namespace vmcw {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Maximum value; 0 for an empty span. Inline: the predictor's window-peak
/// table calls it once per entry.
inline double peak(std::span<const double> xs) noexcept {
  double best = 0.0;
  bool first = true;
  for (double x : xs) {
    if (first || x > best) best = x;
    first = false;
  }
  return first ? 0.0 : best;
}

/// Minimum value; 0 for an empty span.
double minimum(std::span<const double> xs) noexcept;

/// Population standard deviation; 0 for spans with fewer than 2 samples.
double stddev(std::span<const double> xs) noexcept;

/// Coefficient of variation = stddev / mean; 0 when the mean is ~0.
/// CoV >= 1 marks a heavy-tailed series in the paper's terminology.
double coefficient_of_variation(std::span<const double> xs) noexcept;

/// Linear-interpolation percentile, p in [0, 100]. Selects the two order
/// statistics from a copy (O(n)); the same double as percentile_sorted over
/// a sorted copy.
double percentile(std::span<const double> xs, double p);

/// Percentile of an already ascending-sorted span (no copy).
double percentile_sorted(std::span<const double> sorted, double p) noexcept;

/// Peak-to-average ratio = peak / mean; 0 when the mean is ~0.
double peak_to_average(std::span<const double> xs) noexcept;

/// Pearson correlation coefficient of two equal-length series; 0 if either
/// series is constant or the lengths differ/are < 2.
double pearson_correlation(std::span<const double> xs,
                           std::span<const double> ys) noexcept;

/// Compact five-number-style summary used in reports.
struct Summary {
  std::size_t count = 0;
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double max = 0;
};

Summary summarize(std::span<const double> xs);

/// Element-wise sum of many equal-length series (the aggregate-demand
/// operation behind Fig 6). Returns empty if `series` is empty; shorter
/// series are treated as zero-padded.
std::vector<double> elementwise_sum(
    std::span<const std::vector<double>> series);

}  // namespace vmcw
