// Fixture-driven tests for tools/vmcw_analyze: for each whole-program rule
// family one fixture tree that must trigger it and one that must pass,
// plus the suppression/allowlist machinery, the stale-config audit, and
// thread-count determinism of the file walk. Like test_lint these pin the
// rules so the vmcw_analyze_src gate can't silently rot.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze.h"

namespace {

using vmcw::analyze::Config;
using vmcw::analyze::Options;
using vmcw::analyze::Violation;

std::string fixture_root(const std::string& tree) {
  return std::string(VMCW_ANALYZE_FIXTURE_DIR) + "/" + tree;
}

std::vector<Violation> analyze_tree(const std::string& tree,
                                    const Config& config = Config{},
                                    Options options = Options{}) {
  std::string error;
  auto out = vmcw::analyze::analyze_paths(fixture_root(tree), {"."}, config,
                                          options, &error);
  EXPECT_TRUE(error.empty()) << error;
  return out;
}

/// A tree analyzed with no config: the stale audit would flag nothing
/// anyway (no entries), but disabling it keeps intent explicit.
std::vector<Violation> analyze_tree_no_audit(const std::string& tree) {
  Options options;
  options.audit_config = false;
  return analyze_tree(tree, Config{}, options);
}

std::vector<std::pair<std::string, std::size_t>> rule_lines(
    const std::vector<Violation>& violations) {
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const Violation& v : violations) out.emplace_back(v.rule, v.line);
  std::sort(out.begin(), out.end());
  return out;
}

using Expected = std::vector<std::pair<std::string, std::size_t>>;

// --- fork-key-collision -----------------------------------------------------

TEST(ForkKeys, CollisionsAndUntrackedRootTrigger) {
  const auto violations = analyze_tree_no_audit("fork_bad");
  const Expected expected = {{"fork-key-collision", 6},
                             {"fork-key-collision", 8},
                             {"fork-key-collision", 13},
                             {"fork-key-collision", 17}};
  EXPECT_EQ(rule_lines(violations), expected);
}

TEST(ForkKeys, DuplicateKeyDiagnosticNamesTheSiblingWitness) {
  const auto violations = analyze_tree_no_audit("fork_bad");
  ASSERT_FALSE(violations.empty());
  // The duplicate "alpha" at line 6 must point back at the line-5 sibling
  // and name the shared parent stream.
  const Violation& dup = violations.front();
  EXPECT_EQ(dup.line, 6u);
  EXPECT_NE(dup.message.find("\"alpha\""), std::string::npos) << dup.message;
  EXPECT_NE(dup.message.find("line 5"), std::string::npos) << dup.message;
  EXPECT_NE(dup.message.find("'root'"), std::string::npos) << dup.message;
}

TEST(ForkKeys, PrefixOverlapAndLiteralInsidePrefixAreCollisions) {
  const auto violations = analyze_tree_no_audit("fork_bad");
  bool saw_literal_in_prefix = false;
  bool saw_prefix_overlap = false;
  for (const Violation& v : violations) {
    if (v.line == 8) {
      saw_literal_in_prefix =
          v.message.find("dynamic-suffix namespace \"host-") !=
          std::string::npos;
    }
    if (v.line == 13) {
      saw_prefix_overlap =
          v.message.find("overlapping dynamic-suffix") != std::string::npos;
    }
  }
  EXPECT_TRUE(saw_literal_in_prefix);
  EXPECT_TRUE(saw_prefix_overlap);
}

TEST(ForkKeys, UntrackedRootNamesTheReceiver) {
  const auto violations = analyze_tree_no_audit("fork_bad");
  const Violation* untracked = nullptr;
  for (const Violation& v : violations)
    if (v.line == 17) untracked = &v;
  ASSERT_NE(untracked, nullptr);
  EXPECT_NE(untracked->message.find("'mystery'"), std::string::npos);
}

TEST(ForkKeys, DistinctKeysAndPairedHeaderMembersPass) {
  EXPECT_TRUE(analyze_tree_no_audit("fork_ok").empty());
}

// --- lock-order-cycle -------------------------------------------------------

TEST(LockOrder, CrossFileCycleTriggersWithOrderedWitnessPath) {
  const auto violations = analyze_tree_no_audit("lock_bad");
  ASSERT_EQ(violations.size(), 1u);
  const Violation& v = violations.front();
  EXPECT_EQ(v.rule, "lock-order-cycle");
  // The witness path walks the cycle in order with one file:line per edge:
  // io_mu_ -> map_mu_ through append(), map_mu_ -> io_mu_ through publish().
  EXPECT_NE(v.message.find("Journal::io_mu_ -> Registry::map_mu_ "
                           "(svc/journal.cpp:11)"),
            std::string::npos)
      << v.message;
  EXPECT_NE(v.message.find("-> Journal::io_mu_ (svc/registry.cpp:10)"),
            std::string::npos)
      << v.message;
}

TEST(LockOrder, ConsistentOrderWithAnnotationsPasses) {
  EXPECT_TRUE(analyze_tree_no_audit("lock_ok").empty());
}

TEST(LockOrder, CycleAnchorsAtItsFirstEdgeWhateverThePathHolds) {
  // A ')' or ':' in a directory name must not leak into the anchor: the
  // hit sits at the first edge's file and line, and an allow entry for
  // that file silences it without going stale.
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("vmcw_analyze_lock_paren_" + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root / "svc(1)");
  std::ofstream(root / "svc(1)/s.h")
      << "class S {\n public:\n  void ab();\n  void ba();\n private:\n"
         "  Mutex a_;\n  Mutex b_;\n};\n";
  std::ofstream(root / "svc(1)/s.cpp")
      << "#include \"s.h\"\nvoid S::ab() {\n  MutexLock l1(a_);\n"
         "  MutexLock l2(b_);\n}\nvoid S::ba() {\n  MutexLock l1(b_);\n"
         "  MutexLock l2(a_);\n}\n";

  Options options;
  options.audit_config = false;
  std::string error;
  const auto violations = vmcw::analyze::analyze_paths(
      root.string(), {"."}, Config{}, options, &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "lock-order-cycle");
  EXPECT_EQ(violations[0].file, "svc(1)/s.cpp");
  EXPECT_EQ(violations[0].line, 4u);

  Config config;
  ASSERT_TRUE(Config::parse(
      "allow svc(1)/s.cpp lock-order-cycle -- reviewed acquisition order\n",
      config, &error))
      << error;
  const auto allowed = vmcw::analyze::analyze_paths(
      root.string(), {"."}, config, Options{}, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_TRUE(allowed.empty()) << allowed.front().file << ":"
                               << allowed.front().line << " "
                               << allowed.front().message;
  fs::remove_all(root);
}

// --- layering ---------------------------------------------------------------

TEST(Layering, LowerTierIncludingHigherTierTriggers) {
  const auto violations = analyze_tree_no_audit("layer_bad");
  ASSERT_EQ(violations.size(), 1u);
  const Violation& v = violations.front();
  EXPECT_EQ(v.rule, "layering");
  EXPECT_EQ(v.file, "util/helper.h");
  EXPECT_EQ(v.line, 3u);
  EXPECT_NE(v.message.find("back-edge"), std::string::npos);
  EXPECT_NE(v.message.find("'engine'"), std::string::npos);
}

TEST(Layering, IncludeCycleTriggersWithWitnessPath) {
  const auto violations = analyze_tree_no_audit("layer_cycle");
  ASSERT_EQ(violations.size(), 1u);
  const Violation& v = violations.front();
  EXPECT_EQ(v.rule, "layering");
  EXPECT_NE(v.message.find("include cycle"), std::string::npos);
  EXPECT_NE(
      v.message.find("cyc/a.h -> cyc/b.h (cyc/a.h:3) -> cyc/a.h (cyc/b.h:3)"),
      std::string::npos)
      << v.message;
}

TEST(Layering, ForwardAndSameTierIncludesPass) {
  EXPECT_TRUE(analyze_tree_no_audit("layer_ok").empty());
}

// --- durable-write ----------------------------------------------------------

TEST(DurableWrite, RawWritesTrigger) {
  const auto violations = analyze_tree_no_audit("write_bad");
  const Expected expected = {{"durable-write", 8},
                             {"durable-write", 9},
                             {"durable-write", 10},
                             {"durable-write", 11}};
  EXPECT_EQ(rule_lines(violations), expected);
}

TEST(DurableWrite, AtomicWriterAndQualifiedOpenPass) {
  EXPECT_TRUE(analyze_tree_no_audit("write_ok").empty());
}

// --- suppressions and the allowlist -----------------------------------------

TEST(Suppressions, DeclaredAllowsSilenceTheTreeAndStayLive) {
  Config config;
  std::string error;
  ASSERT_TRUE(Config::parse(
      "allow service/snapshot.cpp durable-write -- sanctioned stand-in\n"
      "allow-inline service/pipe.cpp durable-write -- self-pipe wake\n",
      config, &error))
      << error;
  // Audit stays ON: both entries are live, so nothing is stale either.
  EXPECT_TRUE(analyze_tree("write_allow", config).empty());
}

TEST(Suppressions, UndeclaredSuppressionAndBareWriteTriggerWithoutConfig) {
  const auto violations = analyze_tree_no_audit("write_allow");
  const Expected expected = {{"durable-write", 7},
                             {"undeclared-suppression", 6}};
  EXPECT_EQ(rule_lines(violations), expected);
}

TEST(Suppressions, UnusedSuppressionTriggers) {
  const auto violations = analyze_tree_no_audit("suppress_unused");
  const Expected expected = {{"unused-suppression", 5}};
  EXPECT_EQ(rule_lines(violations), expected);
}

// --- stale-config -----------------------------------------------------------

TEST(StaleConfig, EntriesThatAllowNothingTrigger) {
  Config config;
  std::string error;
  ASSERT_TRUE(Config::parse(
      "allow nosuch/file.cpp durable-write -- file is long gone\n"
      "allow core/good.cpp durable-write -- nothing raw left here\n"
      "allow-inline core/good.cpp durable-write -- no suppression lives\n",
      config, &error))
      << error;
  Options options;
  options.config_name = "stale.conf";
  const auto violations = analyze_tree("write_ok", config, options);
  const Expected expected = {
      {"stale-config", 1}, {"stale-config", 2}, {"stale-config", 3}};
  EXPECT_EQ(rule_lines(violations), expected);
  for (const Violation& v : violations) EXPECT_EQ(v.file, "stale.conf");
  EXPECT_NE(violations[0].message.find("matches no analyzed source file"),
            std::string::npos);
  EXPECT_NE(violations[1].message.find("matches no remaining raw violation"),
            std::string::npos);
  EXPECT_NE(violations[2].message.find("backs no live inline suppression"),
            std::string::npos);
}

// --- determinism ------------------------------------------------------------

TEST(Determinism, WholeCorpusOutputIsIdenticalAtOneTwoEightThreads) {
  std::vector<std::vector<Violation>> runs;
  for (const unsigned threads : {1u, 2u, 8u}) {
    Options options;
    options.threads = threads;
    options.audit_config = false;
    std::string error;
    runs.push_back(vmcw::analyze::analyze_paths(
        std::string(VMCW_ANALYZE_FIXTURE_DIR), {"."}, Config{}, options,
        &error));
    ASSERT_TRUE(error.empty()) << error;
  }
  ASSERT_FALSE(runs[0].empty());  // trigger fixtures guarantee output
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i].file, runs[0][i].file);
      EXPECT_EQ(runs[r][i].line, runs[0][i].line);
      EXPECT_EQ(runs[r][i].rule, runs[0][i].rule);
      EXPECT_EQ(runs[r][i].message, runs[0][i].message);
    }
  }
}

TEST(Rules, AnalyzerRuleNamesAreRegisteredWithTheSharedConfig) {
  const auto& shared = vmcw::check::known_rule_names();
  for (const std::string& rule : vmcw::analyze::rule_names())
    EXPECT_NE(std::find(shared.begin(), shared.end(), rule), shared.end())
        << rule;
}

TEST(Rules, LayerOrderMatchesDesign) {
  using vmcw::analyze::module_tier;
  EXPECT_EQ(module_tier("util"), 0);
  EXPECT_EQ(module_tier("runtime"), 1);
  EXPECT_EQ(module_tier("core"), 2);
  EXPECT_EQ(module_tier("trace"), 2);
  EXPECT_EQ(module_tier("chaos"), 3);
  EXPECT_EQ(module_tier("engine"), 4);
  EXPECT_EQ(module_tier("sweep"), 4);
  EXPECT_EQ(module_tier("service"), 5);
  EXPECT_EQ(module_tier("report"), 5);
  EXPECT_EQ(module_tier("fixtures"), -1);  // unknown dirs are tier-exempt
}

}  // namespace
