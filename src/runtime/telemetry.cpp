#include "runtime/telemetry.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace vmcw {

namespace {

std::size_t bucket_index(double value) {
  if (value <= MetricsRegistry::kBucketFloor) return 0;
  const double b = std::log2(value / MetricsRegistry::kBucketFloor);
  if (b >= static_cast<double>(MetricsRegistry::kBuckets - 1))
    return MetricsRegistry::kBuckets - 1;
  return static_cast<std::size_t>(b);
}

void append_json_number(std::ostringstream& out, double value) {
  if (!std::isfinite(value)) {
    out << "0";
    return;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out << buffer;
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  // Leaked deliberately: benches dump the registry from atexit handlers,
  // which can run after function-local statics are destroyed.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::add_counter(std::string_view name, std::uint64_t delta) {
  MutexLock lk(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    counters_.emplace(std::string(name), delta);
  else
    it->second += delta;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  MutexLock lk(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  Histogram& h = it->second;
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  ++h.buckets[bucket_index(value)];
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  MutexLock lk(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

MetricsRegistry::Histogram MetricsRegistry::histogram(
    std::string_view name) const {
  MutexLock lk(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram{} : it->second;
}

std::string MetricsRegistry::to_json() const {
  MutexLock lk(mutex_);
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": {";
    out << "\"count\": " << h.count << ", \"sum\": ";
    append_json_number(out, h.sum);
    out << ", \"min\": ";
    append_json_number(out, h.min);
    out << ", \"max\": ";
    append_json_number(out, h.max);
    out << ", \"mean\": ";
    append_json_number(out, h.count > 0
                                ? h.sum / static_cast<double>(h.count)
                                : 0.0);
    out << ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first_bucket) out << ", ";
      out << "[" << b << ", " << h.buckets[b] << "]";
      first_bucket = false;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

bool write_file_atomic(const std::string& path, std::string_view content,
                       bool durable) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "w");
  if (!file) return false;
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), file);
  bool ok = written == content.size() && std::fflush(file) == 0 &&
            (!durable || ::fdatasync(::fileno(file)) == 0);
  ok = std::fclose(file) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  if (!durable) return true;
  // The rename is durable only once the directory entry is.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

bool MetricsRegistry::dump_json(const std::string& path) const {
  return write_file_atomic(path, to_json());
}

void MetricsRegistry::clear() {
  MutexLock lk(mutex_);
  counters_.clear();
  histograms_.clear();
}

Stopwatch::Stopwatch(std::string name, MetricsRegistry* registry)
    : name_(std::move(name)),
      registry_(registry ? registry : &MetricsRegistry::global()),
      start_(std::chrono::steady_clock::now()) {}

Stopwatch::~Stopwatch() {
  if (stopped_seconds_ < 0) stop();
}

double Stopwatch::seconds() const {
  if (stopped_seconds_ >= 0) return stopped_seconds_;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

double Stopwatch::stop() {
  if (stopped_seconds_ < 0) {
    stopped_seconds_ = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
    registry_->observe(name_, stopped_seconds_);
  }
  return stopped_seconds_;
}

}  // namespace vmcw
