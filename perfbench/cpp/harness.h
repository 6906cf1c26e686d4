// Shared plumbing of the repo benchmark: the run's arguments and result,
// the clock, sample statistics, and the span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  ///< working directory for logs, sockets, spans
};

/// Monotonic seconds.
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds the calling thread has used so far.
double thread_cpu_seconds();

/// Nearest-rank percentile of `samples` (p in [0, 1]); 0 when empty.
double percentile(std::vector<double> samples, double p);
/// Median; the mean of the two middle samples when their count is even.
double median(std::vector<double> samples);

/// Median of the first (or, with `last`, the final) tenth of `samples`,
/// which are in time order: how a cost drifts over one run.
double tenth_median(const std::vector<double>& samples, bool last);

/// Samples strictly above the p-th percentile: a tail percentile is
/// reported only with at least ten of them.
std::size_t beyond(const std::vector<double>& samples, double p);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0;
};

/// What one workload run measured and checked.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< end-to-end and per-layer, by name
  std::vector<std::string> problems;

  void set(std::string name, double value);
  /// Record a failed check: the run is no longer correct.
  void fail(std::string why);
};

/// Whole contents of a file (empty when unreadable).
std::vector<char> file_bytes(const std::string& path);

/// Exact structural counts, printed with their names so later claims can
/// cite them unchanged.
void print_count(std::string_view name, double value);

/// Every counter and histogram of MetricsRegistry::global().
void print_registry();

/// Spans recorded in memory around the calls into each layer; written out
/// when the run ends. A span's self time is its duration minus the time
/// its child spans cover. A disabled tracer records nothing, so the same
/// code runs untraced as the overhead reference.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start = 0;
    double end = 0;
    std::int32_t parent = -1;
    std::int64_t id = -1;  ///< estate index, tick, frame ordinal, or -1
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t id)
        : tracer_(tracer), index_(tracer.open(name, id)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  Scope scope(const char* name, std::int64_t id = -1) {
    return Scope(*this, name, id);
  }

  /// Durations (seconds) of every span called `name`, in start order.
  std::vector<double> durations(std::string_view name) const;
  /// Summed duration / self time (seconds) of the spans called `name`.
  double total(std::string_view name) const;
  double self_time(std::string_view name) const;

  /// One line per span: index,parent,name,id,start_s,end_s,self_s.
  bool write_csv(const std::string& path) const;

 private:
  std::int32_t open(const char* name, std::int64_t id);
  void close(std::int32_t index);
  std::vector<double> self_times() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// ---- workloads (one translation unit each) ----
Result run_paper_study(const Args& args);
Result run_daemon_uptime(const Args& args);
Result run_ingest_socket(const Args& args);

}  // namespace perfbench
