#include "analysis/correlation.h"

#include <algorithm>
#include <cmath>

#include "trace/patterns.h"
#include "util/stats.h"

namespace vmcw {

BodyTail body_tail(std::span<const double> windowed_demand,
                   double body_percentile) {
  BodyTail bt;
  if (windowed_demand.empty()) return bt;
  bt.body = percentile(windowed_demand, body_percentile);
  bt.tail = std::max(peak(windowed_demand) - bt.body, 0.0);
  return bt;
}

std::vector<double> peak_signature(std::span<const double> series,
                                   double body, std::size_t bucket_hours) {
  bucket_hours = std::clamp<std::size_t>(bucket_hours, 1, kHoursPerDay);
  const std::size_t buckets = kHoursPerDay / bucket_hours;
  std::vector<double> above(buckets, 0.0);
  std::vector<double> total(buckets, 0.0);
  for (std::size_t t = 0; t < series.size(); ++t) {
    const std::size_t bucket = hour_of_day(t) / bucket_hours;
    if (bucket >= buckets) continue;  // ragged tail when 24 % bucket_hours
    total[bucket] += 1.0;
    if (series[t] > body) above[bucket] += 1.0;
  }
  for (std::size_t b = 0; b < buckets; ++b)
    above[b] = total[b] > 0 ? above[b] / total[b] : 0.0;
  return above;
}

double signature_similarity(std::span<const double> a,
                            std::span<const double> b) noexcept {
  if (a.size() != b.size() || a.empty()) return 0.0;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na < 1e-12 || nb < 1e-12) return 0.0;
  return dot / std::sqrt(na * nb);
}

std::vector<std::size_t> cluster_signatures(
    std::span<const std::vector<double>> signatures,
    double similarity_threshold) {
  std::vector<std::size_t> assignment(signatures.size(), 0);
  std::vector<std::size_t> leaders;  // index of each cluster's founder
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    bool placed = false;
    for (std::size_t c = 0; c < leaders.size(); ++c) {
      if (signature_similarity(signatures[i], signatures[leaders[c]]) >=
          similarity_threshold) {
        assignment[i] = c;
        placed = true;
        break;
      }
    }
    if (!placed) {
      assignment[i] = leaders.size();
      leaders.push_back(i);
    }
  }
  return assignment;
}

CorrelationStability correlation_stability(
    std::span<const std::vector<double>> series) {
  CorrelationStability result;
  const std::size_t n = series.size();
  if (n < 2) return result;

  std::vector<double> drifts;
  std::size_t flips = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t half_i = series[i].size() / 2;
    const std::span<const double> i1(series[i].data(), half_i);
    const std::span<const double> i2(series[i].data() + half_i,
                                     series[i].size() - half_i);
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t half_j = series[j].size() / 2;
      const std::size_t len1 = std::min(half_i, half_j);
      const std::size_t len2 = std::min(series[i].size() - half_i,
                                        series[j].size() - half_j);
      const double c1 = pearson_correlation(
          i1.first(len1), std::span<const double>(series[j].data(), len1));
      const double c2 = pearson_correlation(
          i2.first(len2),
          std::span<const double>(series[j].data() + half_j, len2));
      drifts.push_back(std::abs(c2 - c1));
      if (c1 * c2 < 0 && (std::abs(c1) > 0.2 || std::abs(c2) > 0.2)) ++flips;
    }
  }
  result.pairs = drifts.size();
  result.mean_abs_drift = mean(drifts);
  result.p95_abs_drift = percentile(drifts, 95);
  result.sign_flip_fraction =
      result.pairs > 0
          ? static_cast<double>(flips) / static_cast<double>(result.pairs)
          : 0.0;
  return result;
}

std::vector<double> correlation_matrix(
    std::span<const std::vector<double>> windowed_series) {
  const std::size_t n = windowed_series.size();
  std::vector<double> m(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    m[i * n + i] = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double r =
          pearson_correlation(windowed_series[i], windowed_series[j]);
      m[i * n + j] = r;
      m[j * n + i] = r;
    }
  }
  return m;
}

}  // namespace vmcw
