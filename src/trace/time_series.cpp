#include "trace/time_series.h"

#include <algorithm>

#include "util/stats.h"

namespace vmcw {

double reduce(std::span<const double> window, WindowReducer reducer) {
  switch (reducer) {
    case WindowReducer::kMax:
      return peak(window);
    case WindowReducer::kMean:
      return mean(window);
    case WindowReducer::kP90:
      return percentile(window, 90.0);
    case WindowReducer::kP95:
      return percentile(window, 95.0);
  }
  return 0.0;
}

TimeSeries::TimeSeries(std::vector<double> samples)
    : samples_(std::move(samples)) {}

TimeSeries TimeSeries::zeros(std::size_t n) {
  return TimeSeries(std::vector<double>(n, 0.0));
}

TimeSeries TimeSeries::tail(std::size_t n) const {
  if (n >= samples_.size()) return *this;
  return TimeSeries(
      std::vector<double>(samples_.end() - static_cast<std::ptrdiff_t>(n),
                          samples_.end()));
}

void TimeSeries::scale(double k) noexcept {
  for (double& x : samples_) x *= k;
}

std::vector<double> TimeSeries::window_reduce(std::size_t window_hours,
                                              WindowReducer reducer) const {
  std::vector<double> out;
  if (window_hours == 0 || samples_.empty()) return out;
  out.reserve((samples_.size() + window_hours - 1) / window_hours);
  for (std::size_t begin = 0; begin < samples_.size(); begin += window_hours) {
    out.push_back(reduce(slice(begin, window_hours), reducer));
  }
  return out;
}

double TimeSeries::mean() const noexcept { return vmcw::mean(samples_); }
double TimeSeries::peak() const noexcept { return vmcw::peak(samples_); }
double TimeSeries::stddev() const noexcept { return vmcw::stddev(samples_); }
double TimeSeries::cov() const noexcept {
  return coefficient_of_variation(samples_);
}
double TimeSeries::peak_to_average() const noexcept {
  return vmcw::peak_to_average(samples_);
}
double TimeSeries::percentile(double p) const {
  return vmcw::percentile(samples_, p);
}

}  // namespace vmcw
