// vmcw_analyze CLI: the determinism contract checker. Exit status 0 =
// clean, 1 = violations, 2 = usage/IO error.
//
//   vmcw_analyze --config=tools/vmcw_lint/vmcw_lint.conf --root=src .
//
// Runs as the `vmcw_analyze_src` ctest; CI also injects one violation per
// rule family (a lexical one included) to prove each gate fails when it
// should. `--threads=N` only changes the wall-clock of the index phase,
// never the output bytes.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: vmcw_analyze [--config=FILE] [--root=DIR] "
               "[--threads=N] [--no-config-audit] [--list-rules] PATH...\n"
               "Checks *.h/*.cpp under each PATH (relative to --root) "
               "against the determinism contract:\nthe lexical rules, "
               "fork-key collisions, lock-order cycles, layering "
               "back-edges/cycles,\ndurable-write discipline, stale config "
               "entries.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string root = ".";
  vmcw::analyze::Options options;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--config=", 0) == 0) {
      config_path = arg.substr(9);
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--threads=", 0) == 0) {
      const long n = std::atol(arg.c_str() + 10);
      if (n < 1 || n > 256) return usage();
      options.threads = static_cast<unsigned>(n);
    } else if (arg == "--no-config-audit") {
      options.audit_config = false;
    } else if (arg == "--list-rules") {
      for (const std::string& rule : vmcw::check::known_rule_names())
        std::printf("%s\n", rule.c_str());
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage();

  vmcw::analyze::Config config;
  if (!config_path.empty()) {
    std::ifstream in(config_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "vmcw_analyze: cannot read config %s\n",
                   config_path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    if (!vmcw::analyze::Config::parse(buffer.str(), config, &error)) {
      std::fprintf(stderr, "vmcw_analyze: %s\n", error.c_str());
      return 2;
    }
    // Stale-config diagnostics point into the file the user passed.
    options.config_name = config_path;
  }

  std::string error;
  const std::vector<vmcw::analyze::Violation> violations =
      vmcw::analyze::analyze_paths(root, paths, config, options, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "vmcw_analyze: %s\n", error.c_str());
    return 2;
  }
  for (const vmcw::analyze::Violation& v : violations)
    std::printf("%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  if (!violations.empty()) {
    std::fprintf(stderr, "vmcw_analyze: %zu violation(s)\n",
                 violations.size());
    return 1;
  }
  return 0;
}
