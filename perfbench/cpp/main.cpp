// The repo benchmark: three workloads, each with its correctness check.
//
//   vmcw_perfbench --workload <paper_study|daemon_uptime|ingest_socket>
//                  --seed <n> --seconds <s> --trace <0|1> [--workdir DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that times the calls into each layer. Human-readable lines
// (counts, registry, every metric with its unit) come first; the last line
// of stdout is one JSON object: correct, attempted, failed, metrics. The
// exit code is 0 only when every check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json: every workload reports each of these.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"job_s", "s"},
    {"peak_rss_mb", "MB"},   {"decide_p50_ms", "ms"},
    {"second_p50_ms", "ms"},
};

// Must match BENCHMARK.json. A layer a workload does not call reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"trace.generate_s", "s"},
    {"core.plan_semi_static_s", "s"},
    {"core.plan_stochastic_s", "s"},
    {"core.plan_dynamic_s", "s"},
    {"core.emulate_s", "s"},
    {"core.dynamic_critical_s", "s"},
    {"runtime.pool_busy_frac", "frac"},
    {"core.hosts.semi_static", "count"},
    {"core.hosts.stochastic", "count"},
    {"core.hosts.dynamic", "count"},
    {"core.dynamic.migrations", "count"},
    {"core.emulate.vm_hours", "count"},
    {"controller.apply_us", "us"},
    {"controller.tick_first_p50_ms", "ms"},
    {"controller.tick_last_p50_ms", "ms"},
    {"controller.tick_growth", "ratio"},
    {"controller.state_bytes", "bytes"},
    {"controller.save_state_ms", "ms"},
    {"controller.restore_state_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"snapshot.write_ms", "ms"},
    {"snapshot.read_ms", "ms"},
    {"daemon.suffix_frames", "count"},
    {"telemetry_log.append_us", "us"},
    {"telemetry_log.read_ms", "ms"},
    {"telemetry_log.sync_p50_ms", "ms"},
    {"telemetry_log.sync_p99_ms", "ms"},
    {"service.wal_fsync_mean_ms", "ms"},
    {"durable.decision_p50_ms", "ms"},
    {"durable.ack_p50_ms", "ms"},
    {"durable.wal_batches", "count"},
    {"protocol.encode_us", "us"},
    {"protocol.decode_us", "us"},
    {"protocol.bytes_per_frame", "bytes"},
    {"ingest.wal_batches", "count"},
    {"ingest.frames_per_batch", "count"},
    {"ingest.backpressure_stalls", "count"},
    {"ingest.rejects", "count"},
    {"collector.closed_loop_frames_per_s", "1/s"},
    {"generator.late_p50_ms", "ms"},
    {"generator.late_max_ms", "ms"},
    {"ingest.backlog_growth", "ratio"},
    {"stream.frames", "count"},
    {"stream.ticks", "count"},
    {"decisions.total", "count"},
    {"decisions.admits", "count"},
    {"decisions.migrations", "count"},
    {"tick_p99_ms", "ms"},
    {"decision_p95_ms", "ms"},
    {"ack_p99_ms", "ms"},
    {"fail_frac", "frac"},
    {"trace.wall_s", "s"},
    {"trace.unattributed_frac", "frac"},
    {"trace.overhead_s", "s"},
};

/// Largest share of the traced wall time the stage spans may leave
/// uncovered (the root span's self time).
constexpr double kMaxUnattributed = 0.05;

template <std::size_t N>
const MetricSpec* find(const MetricSpec (&specs)[N], const std::string& name) {
  for (const MetricSpec& s : specs)
    if (name == s.name) return &s;
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: vmcw_perfbench --workload "
               "<paper_study|daemon_uptime|ingest_socket> --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.workdir = ".bench_build/run";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !(args.seconds > 0)) return usage();

  perfbench::Result (*run)(const perfbench::Args&) = nullptr;
  if (args.workload == "paper_study") run = perfbench::run_paper_study;
  if (args.workload == "daemon_uptime") run = perfbench::run_daemon_uptime;
  if (args.workload == "ingest_socket") run = perfbench::run_ingest_socket;
  if (run == nullptr) return usage();

  args.workdir += "/" + args.workload;
  std::filesystem::remove_all(args.workdir);
  std::filesystem::create_directories(args.workdir);

  perfbench::Result result;
  try {
    result = run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  result.set("peak_rss_mb", perfbench::peak_rss_mb());
  if (result.attempted > 0)
    result.set("fail_frac", static_cast<double>(result.failed) /
                                static_cast<double>(result.attempted));
  if (result.failed > 0)
    result.fail(std::to_string(result.failed) + " of " +
                std::to_string(result.attempted) + " operations failed");
  if (result.attempted == 0) result.fail("no operation attempted");

  // The traced run's stages must account for its wall time.
  for (const perfbench::Metric& m : result.metrics)
    if (m.name == "trace.unattributed_frac" && m.value > kMaxUnattributed)
      result.fail("traced stages cover only " +
                  std::to_string(100 * (1 - m.value)) + "% of the traced wall time");

  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.fail("metric " + m.name + " is not finite");
    const MetricSpec* spec = find(kEndToEnd, m.name);
    if (spec == nullptr) spec = find(kPerLayer, m.name);
    if (spec == nullptr) {
      std::fprintf(stderr, "perfbench: unknown metric %s\n", m.name.c_str());
      return 1;
    }
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, spec->unit);
  }

  const auto value_of = [&](const char* name) -> const double* {
    for (const perfbench::Metric& m : result.metrics)
      if (m.name == name) return &m.value;
    return nullptr;
  };
  if (!args.trace)
    for (const MetricSpec& spec : kEndToEnd)
      if (value_of(spec.name) == nullptr)
        result.fail(std::string("missing metric ") + spec.name);

  // The result line: end-to-end metrics untraced, per-layer metrics traced.
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  const auto emit = [&](const MetricSpec& spec, bool first) {
    const double* value = value_of(spec.name);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, value ? *value : 0.0,
                  spec.unit);
    json += buf;
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, &spec == kPerLayer);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, &spec == kEndToEnd);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
