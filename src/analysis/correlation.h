// Workload correlation and peak-clustering substrate for stochastic
// (PCP-style) consolidation.
//
// The PCP insight (Verma et al., USENIX ATC'09) is that pairwise workload
// correlation is stable over time, so placement can size each VM at the
// *body* (90th percentile) of its demand as long as VMs whose *peaks*
// co-occur are not stacked on the same host. We implement the substrate:
// per-VM body/tail decomposition, a peak-epoch signature (in which hours of
// the day does the VM run above its body?), and clustering of signatures —
// VMs in the same cluster are assumed to peak together, VMs in different
// clusters are not.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vmcw {

/// Body/tail sizing decomposition of a demand series.
struct BodyTail {
  double body = 0;  ///< percentile sizing (the paper uses the 90th)
  double tail = 0;  ///< peak - body, the part provisioned only for spikes
};

/// Decompose a windowed demand series: body = `body_percentile` of the
/// per-window demand values, tail = max - body (>= 0).
BodyTail body_tail(std::span<const double> windowed_demand,
                   double body_percentile = 90.0);

/// Peak-epoch signature: for each hour-of-day bucket (24 / bucket_hours
/// buckets), the fraction of days on which this series exceeded its body
/// during that bucket. Sample t is hour t of the day cycle. Length =
/// 24 / bucket_hours.
std::vector<double> peak_signature(std::span<const double> series,
                                   double body, std::size_t bucket_hours = 4);

/// Cosine similarity of two signatures (0 when either is all-zero).
double signature_similarity(std::span<const double> a,
                            std::span<const double> b) noexcept;

/// Greedy leader-based clustering: each signature joins the first cluster
/// whose leader is at least `similarity_threshold` similar, else founds a
/// new cluster. Returns cluster id per input (dense ids from 0).
std::vector<std::size_t> cluster_signatures(
    std::span<const std::vector<double>> signatures,
    double similarity_threshold = 0.60);

/// Pairwise Pearson correlation matrix of windowed demand series
/// (n x n, row-major). O(n^2 * T) — intended for analysis and tests, not
/// for the planner inner loop.
std::vector<double> correlation_matrix(
    std::span<const std::vector<double>> windowed_series);

/// Correlation stability across time (the mechanism behind Observation 5:
/// "correlation between workloads is stable over time", which is why a
/// placement computed from two weeks of history keeps working for the next
/// two). Splits every series in half, computes the pairwise correlation
/// matrix of each half, and summarizes how much the entries move.
struct CorrelationStability {
  std::size_t pairs = 0;
  double mean_abs_drift = 0;  ///< mean |corr_half2 - corr_half1|
  double p95_abs_drift = 0;
  /// Fraction of pairs whose correlation sign flips between halves while
  /// being meaningfully large (|corr| > 0.2) in at least one half.
  double sign_flip_fraction = 0;
};

CorrelationStability correlation_stability(
    std::span<const std::vector<double>> series);

}  // namespace vmcw
