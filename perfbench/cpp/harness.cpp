#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "runtime/telemetry.h"

namespace perfbench {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  return (*std::max_element(samples.begin(), samples.begin() + mid) + upper) / 2;
}

double tenth_median(const std::vector<double>& samples, bool last) {
  const std::size_t n = std::max<std::size_t>(1, samples.size() / 10);
  if (samples.size() < n) return 0;
  const auto begin = last ? samples.end() - static_cast<std::ptrdiff_t>(n)
                          : samples.begin();
  return median(std::vector<double>(begin, begin + static_cast<std::ptrdiff_t>(n)));
}

std::size_t beyond(const std::vector<double>& samples, double p) {
  const double cut = percentile(samples, p);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double v) { return v > cut; }));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Result::set(std::string name, double value) {
  for (Metric& m : metrics)
    if (m.name == name) {
      m.value = value;
      return;
    }
  metrics.push_back(Metric{std::move(name), value});
}

void Result::fail(std::string why) {
  correct = false;
  std::printf("CHECK FAILED: %s\n", why.c_str());
  problems.push_back(std::move(why));
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void print_count(std::string_view name, double value) {
  std::printf("count %-36.*s %.17g\n", static_cast<int>(name.size()),
              name.data(), value);
}

void print_registry() {
  // The registry dumps itself as JSON; print it on one line so the
  // human-readable part of the output stays line-oriented.
  std::string json = vmcw::MetricsRegistry::global().to_json();
  std::replace(json.begin(), json.end(), '\n', ' ');
  std::printf("registry %s\n", json.c_str());
}

std::int32_t Tracer::open(const char* name, std::int64_t id) {
  if (!enabled_) return -1;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(
      Span{name, now(), 0, stack_.empty() ? -1 : stack_.back(), id});
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now();
  stack_.pop_back();
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  return self;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(s.end - s.start);
  return out;
}

double Tracer::total(std::string_view name) const {
  double sum = 0;
  for (const Span& s : spans_)
    if (name == s.name) sum += s.end - s.start;
  return sum;
}

double Tracer::self_time(std::string_view name) const {
  const std::vector<double> self = self_times();
  double sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name) sum += self[i];
  return sum;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "index,parent,name,id,start_s,end_s,self_s\n";
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  const std::vector<double> self = self_times();
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line), "%zu,%d,%s,%lld,%.9f,%.9f,%.9f\n", i,
                  s.parent, s.name, static_cast<long long>(s.id),
                  s.start - origin, s.end - origin, self[i]);
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
