// Fixture-driven tests for the checker's lexical rules (tools/vmcw_lint):
// one fixture per contract rule that must trigger it and one that must
// pass, plus the suppression and allowlist machinery. Each fixture goes
// through vmcw_analyze's own path — index_file, then the one suppression
// filter — and the tree walk through analyze_paths. These pin the rules so
// they can't silently rot: if a rule stops firing (or starts over-firing),
// a fixture here fails before the vmcw_analyze_src gate goes quietly
// toothless.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze.h"

namespace {

using vmcw::check::Config;
using vmcw::check::Violation;

std::string fixture_path(const std::string& name) {
  return std::string(VMCW_LINT_FIXTURE_DIR) + "/" + name;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(fixture_path(name), std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Config fixtures_config() {
  Config config;
  std::string error;
  EXPECT_TRUE(Config::parse(read_fixture("fixtures.conf"), config, &error))
      << error;
  return config;
}

std::vector<Violation> lint_fixture(const std::string& name,
                                    const Config& config) {
  vmcw::analyze::FileIndex index =
      vmcw::analyze::index_file(name, read_fixture(name));
  return vmcw::check::apply_suppressions(name, config, std::move(index.raw),
                                         std::move(index.suppressions),
                                         nullptr);
}

/// The whole-tree walk, stale-config audit off: these tests pin the lexical
/// rules, not the config.
std::vector<Violation> lint_tree(const std::string& path,
                                 const Config& config, std::string* error) {
  vmcw::analyze::Options options;
  options.audit_config = false;
  return vmcw::analyze::analyze_paths(VMCW_LINT_FIXTURE_DIR, {path}, config,
                                      options, error);
}

std::vector<Violation> lint_fixture(const std::string& name) {
  return lint_fixture(name, Config{});
}

/// (rule, line) pairs of the violations, sorted for order-free comparison.
std::vector<std::pair<std::string, std::size_t>> rule_lines(
    const std::vector<Violation>& violations) {
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const Violation& v : violations) out.emplace_back(v.rule, v.line);
  std::sort(out.begin(), out.end());
  return out;
}

using Expected = std::vector<std::pair<std::string, std::size_t>>;

TEST(LintRules, NondeterministicRngTriggers) {
  const Expected expected = {{"nondeterministic-rng", 5},
                             {"nondeterministic-rng", 6},
                             {"nondeterministic-rng", 7},
                             {"nondeterministic-rng", 8}};
  EXPECT_EQ(rule_lines(lint_fixture("nondeterministic_rng_bad.cpp")),
            expected);
}

TEST(LintRules, NondeterministicRngPassesForkedStreams) {
  EXPECT_TRUE(lint_fixture("nondeterministic_rng_ok.cpp").empty());
}

TEST(LintRules, WallClockTriggers) {
  const Expected expected = {
      {"wall-clock", 6}, {"wall-clock", 7}, {"wall-clock", 8}};
  EXPECT_EQ(rule_lines(lint_fixture("wall_clock_bad.cpp")), expected);
}

TEST(LintRules, WallClockPassesSimulatedTime) {
  EXPECT_TRUE(lint_fixture("wall_clock_ok.cpp").empty());
}

TEST(LintRules, UnorderedIterationTriggers) {
  const Expected expected = {{"unordered-iteration", 7}};
  EXPECT_EQ(rule_lines(lint_fixture("unordered_iteration_bad.cpp")),
            expected);
}

TEST(LintRules, UnorderedIterationPassesLookupsAndOrderedMaps) {
  EXPECT_TRUE(lint_fixture("unordered_iteration_ok.cpp").empty());
}

TEST(LintRules, ThreadIdentityTriggers) {
  const Expected expected = {{"thread-identity", 6},
                             {"thread-identity", 8},
                             {"thread-identity", 10}};
  EXPECT_EQ(rule_lines(lint_fixture("thread_identity_bad.cpp")), expected);
}

TEST(LintRules, ThreadIdentityPassesTaskIndexedWork) {
  EXPECT_TRUE(lint_fixture("thread_identity_ok.cpp").empty());
}

TEST(LintRules, MutableGlobalTriggers) {
  const Expected expected = {
      {"mutable-global", 4},   // namespace-scope int
      {"mutable-global", 5},   // static double
      {"mutable-global", 6},   // thread_local
      {"mutable-global", 7},   // brace-initialized atomic
      {"mutable-global", 10},  // inside a named namespace
      {"mutable-global", 14},  // function-local static
  };
  EXPECT_EQ(rule_lines(lint_fixture("mutable_global_bad.cpp")), expected);
}

TEST(LintRules, MutableGlobalPassesConstantsAndLocals) {
  EXPECT_TRUE(lint_fixture("mutable_global_ok.cpp").empty());
}

TEST(LintRules, RngConstructionTriggers) {
  const Expected expected = {{"rng-construction", 6},
                             {"rng-construction", 7}};
  EXPECT_EQ(rule_lines(lint_fixture("rng_construction_bad.cpp")), expected);
}

TEST(LintRules, RngConstructionPassesForksAndDeclarations) {
  EXPECT_TRUE(lint_fixture("rng_construction_ok.cpp").empty());
}

// --- suppression + allowlist machinery ------------------------------------

TEST(LintSuppressions, DeclaredInlineSuppressionSilences) {
  EXPECT_TRUE(
      lint_fixture("suppression_declared.cpp", fixtures_config()).empty());
}

TEST(LintSuppressions, UndeclaredSuppressionIsItselfAViolation) {
  // The srand violation is silenced, but the suppression has no
  // allow-inline entry — the escape hatch reports itself.
  const Expected expected = {{"undeclared-suppression", 6}};
  EXPECT_EQ(rule_lines(lint_fixture("suppression_undeclared.cpp",
                                    fixtures_config())),
            expected);
}

TEST(LintSuppressions, StaleSuppressionIsItselfAViolation) {
  const Expected expected = {{"unused-suppression", 4}};
  EXPECT_EQ(
      rule_lines(lint_fixture("suppression_unused.cpp", fixtures_config())),
      expected);
}

TEST(LintSuppressions, WholeFileAllowEntrySilencesRule) {
  EXPECT_TRUE(
      lint_fixture("allowlisted_file.cpp", fixtures_config()).empty());
  // Without the config entry the same file trips wall-clock.
  EXPECT_FALSE(lint_fixture("allowlisted_file.cpp").empty());
}

// --- config parsing --------------------------------------------------------

TEST(LintConfig, ParseRejectsMissingJustification) {
  Config config;
  std::string error;
  EXPECT_FALSE(
      Config::parse("allow foo.cpp wall-clock --\n", config, &error));
  EXPECT_NE(error.find("justification"), std::string::npos) << error;
}

TEST(LintConfig, ParseRejectsUnknownRule) {
  Config config;
  std::string error;
  EXPECT_FALSE(
      Config::parse("allow foo.cpp no-such-rule -- why\n", config, &error));
  EXPECT_NE(error.find("unknown rule"), std::string::npos) << error;
}

TEST(LintConfig, ParseRejectsUnknownDirective) {
  Config config;
  std::string error;
  EXPECT_FALSE(Config::parse("deny foo.cpp wall-clock -- why\n", config,
                             &error));
  EXPECT_NE(error.find("unknown directive"), std::string::npos) << error;
}

TEST(LintConfig, ParseAcceptsCommentsAndBlankLines) {
  Config config;
  std::string error;
  EXPECT_TRUE(Config::parse(
      "# comment\n\nallow a.cpp wall-clock -- reason words\n"
      "allow-inline b/*.cpp rng-construction -- another reason\n",
      config, &error))
      << error;
  ASSERT_EQ(config.allow.size(), 1u);
  ASSERT_EQ(config.allow_inline.size(), 1u);
  EXPECT_TRUE(config.allows("a.cpp", "wall-clock"));
  EXPECT_FALSE(config.allows("a.cpp", "thread-identity"));
  EXPECT_TRUE(config.allows_inline("b/x.cpp", "rng-construction"));
  EXPECT_FALSE(config.allows_inline("c/x.cpp", "rng-construction"));
}

TEST(LintConfig, GlobMatchCrossesDirectories) {
  EXPECT_TRUE(vmcw::check::glob_match("runtime/*.cpp", "runtime/sweep.cpp"));
  EXPECT_TRUE(vmcw::check::glob_match("*", "anything/at/all.h"));
  EXPECT_TRUE(vmcw::check::glob_match("a/*/c.h", "a/b/x/c.h"));
  EXPECT_FALSE(vmcw::check::glob_match("runtime/*.cpp", "chaos/plan.cpp"));
  EXPECT_FALSE(vmcw::check::glob_match("a.cpp", "ab.cpp"));
}

// --- directory walking -----------------------------------------------------

TEST(LintPaths, WalksFixtureTreeDeterministically) {
  const Config config = fixtures_config();
  std::string error;
  const std::vector<Violation> first = lint_tree(".", config, &error);
  ASSERT_TRUE(error.empty()) << error;
  const std::vector<Violation> second = lint_tree(".", config, &error);
  ASSERT_TRUE(error.empty()) << error;

  // Two walks are byte-identical, and reported paths are root-relative so
  // the config globs match regardless of where the tree lives on disk.
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].file, second[i].file);
    EXPECT_EQ(first[i].line, second[i].line);
    EXPECT_EQ(first[i].rule, second[i].rule);
  }

  // Exactly the bad fixtures plus the two suppression meta-violations
  // surface; every ok/declared/allowlisted fixture stays silent.
  std::set<std::string> files;
  for (const Violation& v : first) files.insert(v.file);
  const std::set<std::string> expected = {
      "mutable_global_bad.cpp",      "nondeterministic_rng_bad.cpp",
      "rng_construction_bad.cpp",    "suppression_undeclared.cpp",
      "suppression_unused.cpp",      "thread_identity_bad.cpp",
      "unordered_iteration_bad.cpp", "wall_clock_bad.cpp"};
  EXPECT_EQ(files, expected);
  EXPECT_EQ(first.size(), 21u);
}

TEST(LintPaths, MissingPathReportsError) {
  std::string error;
  lint_tree("no_such_dir", Config{}, &error);
  EXPECT_FALSE(error.empty());
}

}  // namespace
