// Per-phase telemetry: Stopwatch spans + a process-wide MetricsRegistry.
//
// Every phase of the experiment runtime (estate generation, monitoring
// collection, planning, emulation, whole sweeps) records wall-clock spans
// and counters here; benches dump the registry as JSON next to their
// table output so a slow figure can be attributed to a phase without a
// profiler. Telemetry is observational only — it never feeds back into
// results, so enabling or disabling it cannot change any experiment's
// output (the determinism contract covers result bytes, not the telemetry
// sidecar, which contains wall times).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/thread_annotations.h"

namespace vmcw {

/// Write `content` to `path` through a `.tmp` sibling + rename(2), so a
/// reader — or a process crash mid-write — never observes a truncated
/// file: `path` is either its previous complete content or the new one.
/// Returns false on I/O failure (the temp file is cleaned up). Telemetry
/// sidecars, reports, the ingest health file and bench figure/table
/// outputs all write through this without `durable`. With `durable` the
/// temp file is fdatasync'd before the rename and the parent directory
/// fsync'd after it, so the new content also survives a power loss
/// (controller snapshots, service/snapshot).
bool write_file_atomic(const std::string& path, std::string_view content,
                       bool durable = false);

/// Thread-safe registry of named counters and histograms.
class MetricsRegistry {
 public:
  /// Exponential histogram buckets: bucket b covers
  /// [kBucketFloor * 2^b, kBucketFloor * 2^(b+1)); 48 buckets span
  /// ~1e-7 .. ~2.8e7 (comfortably nanoseconds-to-months in seconds).
  static constexpr double kBucketFloor = 1e-7;
  static constexpr std::size_t kBuckets = 48;

  struct Histogram {
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };

  static MetricsRegistry& global();

  void add_counter(std::string_view name, std::uint64_t delta = 1);
  void observe(std::string_view name, double value);

  std::uint64_t counter(std::string_view name) const;
  Histogram histogram(std::string_view name) const;

  /// Everything currently recorded, as a JSON object with "counters" and
  /// "histograms" members (histograms report count/sum/min/max/mean and
  /// the non-empty buckets).
  std::string to_json() const;

  /// Write to_json() to `path`. Returns false on I/O failure.
  bool dump_json(const std::string& path) const;

  void clear();

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> counters_
      VMCW_GUARDED_BY(mutex_);
  std::map<std::string, Histogram, std::less<>> histograms_
      VMCW_GUARDED_BY(mutex_);
};

/// RAII wall-clock span: records elapsed seconds into a registry histogram
/// under `name` when stopped or destroyed. Use names like
/// "emulate.wall_seconds" so the unit is visible in the dump.
class Stopwatch {
 public:
  /// registry == nullptr records into MetricsRegistry::global().
  explicit Stopwatch(std::string name, MetricsRegistry* registry = nullptr);
  ~Stopwatch();

  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

  /// Elapsed seconds so far (running or stopped).
  double seconds() const;

  /// Record now instead of at destruction; returns elapsed seconds.
  double stop();

 private:
  std::string name_;
  MetricsRegistry* registry_;
  std::chrono::steady_clock::time_point start_;
  double stopped_seconds_ = -1.0;
};

}  // namespace vmcw
