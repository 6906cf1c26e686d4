#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace vmcw {

namespace {
constexpr double kTinyMean = 1e-12;
}

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double minimum(std::span<const double> xs) noexcept {
  double best = 0.0;
  bool first = true;
  for (double x : xs) {
    if (first || x < best) best = x;
    first = false;
  }
  return first ? 0.0 : best;
}

double stddev(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double accum = 0.0;
  for (double x : xs) accum += (x - m) * (x - m);
  return std::sqrt(accum / static_cast<double>(xs.size()));
}

double coefficient_of_variation(std::span<const double> xs) noexcept {
  const double m = mean(xs);
  if (std::abs(m) < kTinyMean) return 0.0;
  return stddev(xs) / m;
}

namespace {

/// Where percentile p falls among n >= 2 ascending samples: between order
/// statistics lo and hi = min(lo + 1, n - 1), a fraction frac past lo.
struct Rank {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

Rank percentile_rank(std::size_t n, double p) noexcept {
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  return {lo, std::min(lo + 1, n - 1), rank - static_cast<double>(lo)};
}

double interpolate(double lo, double hi, double frac) noexcept {
  return lo + frac * (hi - lo);
}

}  // namespace

double percentile_sorted(std::span<const double> sorted, double p) noexcept {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const Rank r = percentile_rank(sorted.size(), p);
  return interpolate(sorted[r.lo], sorted[r.hi], r.frac);
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  if (xs.size() == 1) return xs[0];
  // Select order statistic lo; everything after it is >= it, so the
  // smallest of that upper part is order statistic lo + 1. Both are exact
  // elements, so the result is the double a full sort gives.
  const Rank r = percentile_rank(xs.size(), p);
  std::vector<double> copy(xs.begin(), xs.end());
  const auto lo = copy.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(copy.begin(), lo, copy.end());
  const double hi = r.hi == r.lo ? *lo : *std::min_element(lo + 1, copy.end());
  return interpolate(*lo, hi, r.frac);
}

double peak_to_average(std::span<const double> xs) noexcept {
  const double m = mean(xs);
  if (std::abs(m) < kTinyMean) return 0.0;
  return peak(xs) / m;
}

double pearson_correlation(std::span<const double> xs,
                           std::span<const double> ys) noexcept {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx < kTinyMean || syy < kTinyMean) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.min = sorted.front();
  s.max = sorted.back();
  s.p50 = percentile_sorted(sorted, 50);
  s.p90 = percentile_sorted(sorted, 90);
  s.p99 = percentile_sorted(sorted, 99);
  return s;
}

std::vector<double> elementwise_sum(
    std::span<const std::vector<double>> series) {
  std::vector<double> total;
  for (const auto& s : series) {
    if (s.size() > total.size()) total.resize(s.size(), 0.0);
    for (std::size_t i = 0; i < s.size(); ++i) total[i] += s[i];
  }
  return total;
}

}  // namespace vmcw
