// Shared helpers for the figure/table benches.
//
// Every bench regenerates the four synthetic estates from the same seed
// (kStudySeed), so all figures describe the same fleets — exactly as the
// paper's figures all describe the same four data centers.
#pragma once

#include <sys/resource.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "analysis/burstiness.h"
#include "core/study.h"
#include "sweep/sweep.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "trace/generator.h"
#include "trace/presets.h"
#include "util/cdf.h"
#include "util/table.h"

namespace vmcw::bench {

/// Command-line knobs (the journal flags serve SweepDriver-backed benches):
///   [servers]              positional: servers per estate (0 = full scale)
///   --resume               replay this bench's cell journal and compute
///                          only the cells a previous (killed) run did not
///                          finish; output is byte-identical to a clean run
///   --journal=PATH         override the journal path (default: next to the
///                          telemetry sidecar, journal_<slug>[_<suffix>].bin)
///   --no-journal           disable journaling entirely
struct BenchOptions {
  int servers = 0;
  bool resume = false;
  bool journal = true;
  std::string journal_override;
};

inline BenchOptions parse_options(int argc, char** argv,
                                  int default_servers = 0) {
  BenchOptions opts;
  opts.servers = default_servers;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--resume")
      opts.resume = true;
    else if (arg == "--no-journal")
      opts.journal = false;
    else if (arg.rfind("--journal=", 0) == 0)
      opts.journal_override = arg.substr(10);
    else if (!arg.empty() && arg[0] != '-')
      opts.servers = std::atoi(arg.c_str());
  }
  return opts;
}

/// Generate all four data centers at full Table 2 scale (or a scale
/// override from the command line: argv[1] = servers per DC). Fleets are
/// generated across the thread pool; each is seeded independently from
/// kStudySeed, so the output is identical at any VMCW_THREADS.
inline std::vector<Datacenter> make_fleets(int argc, char** argv) {
  Stopwatch span("bench.make_fleets_seconds");
  const int servers = argc > 1 ? std::atoi(argv[1]) : 0;
  const auto presets = all_workload_specs();
  std::vector<Datacenter> fleets(presets.size());
  parallel_for(0, presets.size(), [&](std::size_t i) {
    const WorkloadSpec spec = servers > 0
                                  ? scaled_down(presets[i], servers,
                                                presets[i].hours)
                                  : presets[i];
    fleets[i] = generate_datacenter(spec, kStudySeed);
  });
  return fleets;
}

/// Baseline Table 3 settings.
inline StudySettings baseline_settings() { return StudySettings{}; }

/// Run the three-way study for every fleet with baseline settings — one
/// sweep cell per fleet across the pool, each writing its own slot.
inline std::vector<StudyResult> run_all_studies(
    const std::vector<Datacenter>& fleets) {
  Stopwatch span("bench.studies_seconds");
  std::vector<StudyResult> studies(fleets.size());
  parallel_for(
      0, fleets.size(),
      [&](std::size_t i) { studies[i] = run_study(fleets[i], baseline_settings()); },
      /*pool=*/nullptr, /*grain=*/1);
  return studies;
}

namespace detail {

inline std::string& telemetry_path() {
  static std::string path;
  return path;
}

inline std::string& output_slug() {
  static std::string slug;
  return slug;
}

inline void dump_telemetry() {
  if (!telemetry_path().empty())
    MetricsRegistry::global().dump_json(telemetry_path());
}

}  // namespace detail

inline std::string slugify(const char* name) {
  std::string slug;
  for (const char* c = name; *c; ++c)
    slug += std::isalnum(static_cast<unsigned char>(*c))
                ? static_cast<char>(std::tolower(static_cast<unsigned char>(*c)))
                : '_';
  return slug;
}

inline void print_header(const char* figure, const char* caption) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("==============================================================\n");
  detail::output_slug() = slugify(figure);
  // Dump per-phase telemetry as JSON next to this bench's output when the
  // process exits (sidecar only — tables on stdout stay byte-identical at
  // any thread count). Disable with VMCW_TELEMETRY=0.
  const char* env = std::getenv("VMCW_TELEMETRY");
  if (env && env[0] == '0') return;
  const bool fresh = detail::telemetry_path().empty();
  detail::telemetry_path() = "telemetry_" + detail::output_slug() + ".json";
  if (fresh) std::atexit(&detail::dump_telemetry);
}

/// SweepOptions for this bench's durable sweep: journal next to the
/// telemetry sidecar (journal_<slug>[_<suffix>].bin), resume from the
/// command line. Benches with several independent sweeps distinguish
/// their journals by `suffix`.
inline SweepOptions sweep_options(const BenchOptions& opts,
                                  const char* suffix = nullptr) {
  SweepOptions sweep;
  if (opts.journal) {
    if (!opts.journal_override.empty()) {
      sweep.journal_path = opts.journal_override;
      if (suffix != nullptr) {
        sweep.journal_path += '_';
        sweep.journal_path += suffix;
      }
    } else {
      sweep.journal_path = "journal_" + detail::output_slug();
      if (suffix != nullptr) {
        sweep.journal_path += '_';
        sweep.journal_path += suffix;
      }
      sweep.journal_path += ".bin";
    }
  }
  sweep.resume = opts.resume;
  return sweep;
}

/// Write this bench's figure/table payload to <slug>.dat through the same
/// temp + rename path the telemetry sidecar uses, so a killed bench never
/// leaves a truncated artifact on disk.
inline bool write_dat(const std::string& content) {
  if (detail::output_slug().empty()) return false;
  return write_file_atomic(detail::output_slug() + ".dat", content);
}

/// Wall-clock stopwatch for the machine-readable bench sidecars. Lives in
/// bench/ (not src/) on purpose: the determinism lint bans wall clocks in
/// library code, but a bench measuring itself is exactly what they are for.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Extra key/value pairs for write_bench_json.
struct BenchMetric {
  std::string name;
  double value = 0;
};

inline std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// Machine-readable result sidecar BENCH_<name>.json: wall time, one named
/// rate metric (decisions/sec, cells/sec, ...), peak RSS, plus any extras.
/// Written via the same atomic temp+rename path as the other sidecars.
/// Numbers here are measurements, not determinism-checked output — CI
/// compares the .dat tables and decision logs, never these (the perf gate
/// compares them with a tolerance band, tools/bench_gate).
///
/// `peak_rss_ceiling_kb` > 0 makes a memory budget binding: exceeding it
/// is a hard bench failure (stderr diagnostic + false return; callers exit
/// non-zero), not a number someone has to notice in the sidecar. The
/// violating sidecar is still written first so the evidence survives.
inline bool write_bench_json(const std::string& name, double wall_seconds,
                             const std::string& rate_metric, double rate,
                             const std::vector<BenchMetric>& extras = {},
                             long peak_rss_ceiling_kb = 0) {
  long peak_rss_kb = 0;
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) peak_rss_kb = usage.ru_maxrss;

  std::string json = "{\n";
  json += "  \"bench\": \"" + name + "\",\n";
  json += "  \"wall_seconds\": " + json_number(wall_seconds) + ",\n";
  json += "  \"" + rate_metric + "\": " + json_number(rate) + ",\n";
  for (const BenchMetric& extra : extras)
    json += "  \"" + extra.name + "\": " + json_number(extra.value) + ",\n";
  if (peak_rss_ceiling_kb > 0)
    json += "  \"peak_rss_ceiling_kb\": " +
            json_number(static_cast<double>(peak_rss_ceiling_kb)) + ",\n";
  json += "  \"peak_rss_kb\": " + json_number(static_cast<double>(peak_rss_kb)) +
          "\n}\n";
  const bool wrote = write_file_atomic("BENCH_" + name + ".json", json);
  if (peak_rss_ceiling_kb > 0 && peak_rss_kb > peak_rss_ceiling_kb) {
    std::fprintf(stderr,
                 "BENCH FAIL %s: peak RSS %ld kB exceeds ceiling %ld kB\n",
                 name.c_str(), peak_rss_kb, peak_rss_ceiling_kb);
    return false;
  }
  return wrote;
}

/// "(a) Banking"-style label as the paper's sub-figures use.
inline std::string subfig_label(const Datacenter& dc, std::size_t index) {
  const char letter = static_cast<char>('a' + index);
  return std::string("(") + letter + ") " + dc.industry;
}

/// The CDF series of one burstiness figure (Figs 2-5): one sub-figure per
/// data center, one curve per consolidation window (1/2/4 h).
inline void print_burstiness_figure(const std::vector<Datacenter>& fleets,
                                    Resource resource, bool plot_cov,
                                    std::span<const double> thresholds) {
  const std::size_t windows[] = {1, 2, 4};
  for (std::size_t i = 0; i < fleets.size(); ++i) {
    const auto& dc = fleets[i];
    std::printf("\n%s\n", subfig_label(dc, i).c_str());

    std::vector<std::string> names;
    std::vector<EmpiricalCdf> cdfs;
    for (std::size_t w : windows) {
      const auto result = burstiness(dc, resource, w);
      names.push_back(std::to_string(w) + "h");
      cdfs.push_back(plot_cov ? cov_cdf(result) : p2a_cdf(result));
    }
    const std::vector<double> quantiles{0.10, 0.25, 0.50, 0.75,
                                        0.90, 0.95, 0.99};
    std::printf("%s", format_cdf_table(names, cdfs, quantiles).c_str());

    TextTable fractions({"window", "metric"});
    for (std::size_t w = 0; w < cdfs.size(); ++w) {
      std::string cells;
      for (double th : thresholds) {
        cells += " P(x>" + fmt(th, plot_cov ? 1 : 0) +
                 ")=" + fmt_pct(cdfs[w].fraction_above(th));
      }
      fractions.add_row({names[w], cells});
    }
    std::printf("%s", fractions.str().c_str());
  }
}

}  // namespace vmcw::bench
