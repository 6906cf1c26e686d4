// vmcw_bench_gate CLI. Exit status 0 = no perf regression, 1 = regression,
// 2 = usage/IO error (including "nothing to compare", so a CI step that
// forgot to run the benches cannot pass vacuously).
//
//   vmcw_bench_gate bench/baselines build/bench [--rate-tolerance=0.4]
//       [--time-tolerance=1.0]
//
// Compares every BENCH_*.json present in BOTH directories, in sorted
// order. Baseline-only or fresh-only files are listed but not judged;
// scale-mismatched pairs are skipped with a note (see gate.h).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "gate.h"

namespace fs = std::filesystem;
using namespace vmcw::bench_gate;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: vmcw_bench_gate BASELINE_DIR FRESH_DIR "
               "[--rate-tolerance=F] [--time-tolerance=F]\n"
               "Compares BENCH_*.json sidecars present in both directories; "
               "exits 1 on any perf regression.\n");
  return 2;
}

std::set<std::string> sidecar_names(const fs::path& dir, std::string* error) {
  std::set<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".json") == 0)
      names.insert(name);
  }
  if (ec) *error = dir.string() + ": " + ec.message();
  return names;
}

bool load_sidecar(const fs::path& path, Sidecar& out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path.string();
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!parse_sidecar(buffer.str(), out)) {
    *error = "cannot parse " + path.string();
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  GateOptions options;
  std::string baseline_dir;
  std::string fresh_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--rate-tolerance=", 0) == 0) {
      options.rate_tolerance = std::atof(arg.c_str() + 17);
    } else if (arg.rfind("--time-tolerance=", 0) == 0) {
      options.time_tolerance = std::atof(arg.c_str() + 17);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (baseline_dir.empty()) {
      baseline_dir = arg;
    } else if (fresh_dir.empty()) {
      fresh_dir = arg;
    } else {
      return usage();
    }
  }
  if (baseline_dir.empty() || fresh_dir.empty()) return usage();

  std::string error;
  const std::set<std::string> baselines = sidecar_names(baseline_dir, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "vmcw_bench_gate: %s\n", error.c_str());
    return 2;
  }
  const std::set<std::string> fresh = sidecar_names(fresh_dir, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "vmcw_bench_gate: %s\n", error.c_str());
    return 2;
  }

  for (const std::string& name : baselines)
    if (!fresh.count(name))
      std::printf("note: %s has no fresh run, not judged\n", name.c_str());
  for (const std::string& name : fresh)
    if (!baselines.count(name))
      std::printf("note: %s has no baseline, not judged\n", name.c_str());

  std::size_t compared = 0;
  std::size_t failures = 0;
  for (const std::string& name : baselines) {
    if (!fresh.count(name)) continue;
    Sidecar base, run;
    if (!load_sidecar(fs::path(baseline_dir) / name, base, &error) ||
        !load_sidecar(fs::path(fresh_dir) / name, run, &error)) {
      std::fprintf(stderr, "vmcw_bench_gate: %s\n", error.c_str());
      return 2;
    }
    const Comparison result = compare(base, run, options);
    for (const std::string& line : result.lines)
      std::printf("%s\n", line.c_str());
    if (result.verdict == Verdict::kFail) ++failures;
    if (result.verdict != Verdict::kSkippedScaleMismatch) ++compared;
  }

  if (compared == 0 && failures == 0) {
    std::fprintf(stderr,
                 "vmcw_bench_gate: no comparable sidecars between %s and %s\n",
                 baseline_dir.c_str(), fresh_dir.c_str());
    return 2;
  }
  if (failures > 0) {
    std::fprintf(stderr, "vmcw_bench_gate: %zu bench(es) regressed\n",
                 failures);
    return 1;
  }
  std::printf("vmcw_bench_gate: %zu bench(es) within tolerance\n", compared);
  return 0;
}
