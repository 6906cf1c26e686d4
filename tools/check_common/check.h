// Front-end of the static contract checker (vmcw_analyze): a
// dependency-free C++ tokenizer, the allowlist config format,
// inline-suppression handling, and the deterministic source-tree walk. The
// lexical rules (tools/vmcw_lint) and the whole-program rules
// (tools/vmcw_analyze) see source through this one lexer, one config file
// and one suppression filter, so an exemption means the same thing to
// every rule.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace vmcw::check {

// ---------------------------------------------------------------------------
// Tokenizer. Comments, string/char literals and preprocessor directives are
// consumed (a banned identifier inside an #include or a string is not a
// violation — except string literals, which keep their text: rule
// thread-identity wants to see "VMCW_THREADS", and the fork-key analysis
// wants the literal key).
// ---------------------------------------------------------------------------

enum class Tok { kIdent, kNumber, kString, kPunct };

struct Token {
  Tok kind;
  std::string_view text;
  std::size_t line;
};

std::vector<Token> tokenize(std::string_view src);

/// Text of the token before/after `i`, or empty at the edges.
std::string_view prev_text(const std::vector<Token>& toks, std::size_t i);
std::string_view next_text(const std::vector<Token>& toks, std::size_t i);

/// Index just past the matching closer for the opener at `open` (which must
/// be '(', '[', '{' or '<'). For '<', '>>' counts as two closers. Returns
/// toks.size() when unbalanced.
std::size_t skip_group(const std::vector<Token>& toks, std::size_t open);

/// Concatenate string-ish pieces with append (gcc 12's -Wrestrict
/// false-positives on `const char* + std::string&&` chains).
template <typename... Parts>
std::string cat(Parts&&... parts) {
  std::string out;
  (out.append(parts), ...);
  return out;
}

// ---------------------------------------------------------------------------
// Diagnostics and the shared allowlist config.
// ---------------------------------------------------------------------------

struct Violation {
  std::string file;  ///< repo-relative path, as passed to the checker
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// Every rule the checker implements, lexical rules first. Config::parse
/// validates entries against this list, and apply_suppressions audits the
/// inline suppressions that name one of these rules.
const std::vector<std::string>& known_rule_names();

/// Names of the suppression meta-rules.
inline constexpr std::string_view kRuleUndeclaredSuppression =
    "undeclared-suppression";
inline constexpr std::string_view kRuleUnusedSuppression =
    "unused-suppression";

/// Parsed allowlist config. Line format (one entry per line):
///   allow <path-glob> <rule> -- <justification>
///   allow-inline <path-glob> <rule> -- <justification>
/// `#` starts a comment; the justification is mandatory. Globs use `*`
/// (matches any run of characters, including '/').
struct Config {
  struct Entry {
    std::string pattern;
    std::string rule;
    std::string reason;
    std::size_t line = 0;  ///< 1-based line in the config file
  };
  std::vector<Entry> allow;         ///< whole-file exemptions for a rule
  std::vector<Entry> allow_inline;  ///< files allowed inline suppressions

  /// Parse config text; on syntax error returns false and sets *error.
  static bool parse(std::string_view text, Config& out, std::string* error);

  bool allows(std::string_view file, std::string_view rule) const;
  bool allows_inline(std::string_view file, std::string_view rule) const;
};

/// `*`-glob match (case-sensitive, `*` crosses '/').
bool glob_match(std::string_view pattern, std::string_view text);

// ---------------------------------------------------------------------------
// Inline suppressions: `// vmcw-lint: allow(rule[, rule...])` on the
// violating line, or on a standalone comment line directly above it.
// ---------------------------------------------------------------------------

struct Suppression {
  std::size_t comment_line;  ///< where the comment sits (for reporting)
  std::string rule;
  bool used = false;
};

/// The inline suppressions of one file: `all` in comment order, and
/// `by_line[n]` the indices into `all` covering line n (a standalone comment
/// covers the following line too).
struct Suppressions {
  std::vector<Suppression> all;
  std::map<std::size_t, std::vector<std::size_t>> by_line;
};

/// Scan `content` for suppression comments.
Suppressions scan_suppressions(std::string_view content);

/// Filter `raw`, every violation of the file `path`, through the config's
/// whole-file allows and the file's inline suppressions; append
/// undeclared-suppression / unused-suppression meta-violations for each
/// suppression that names a known rule. When `used_rules` is non-null it
/// receives the rule of every declared suppression that fired (deduplicated
/// per line+rule).
std::vector<Violation> apply_suppressions(std::string_view path,
                                          const Config& config,
                                          std::vector<Violation> raw,
                                          Suppressions suppressions,
                                          std::vector<std::string>* used_rules);

// ---------------------------------------------------------------------------
// Deterministic source-tree walk.
// ---------------------------------------------------------------------------

struct SourceFile {
  std::string rel_path;   ///< root-relative, '/'-separated
  std::string full_path;  ///< as opened on disk
};

/// List every *.h/*.hpp/*.cpp/*.cc under `paths` (files or directories),
/// resolved relative to `root`, in sorted order so downstream output is
/// stable. On error returns false and sets *error.
bool list_source_files(const std::string& root,
                       const std::vector<std::string>& paths,
                       std::vector<SourceFile>& out, std::string* error);

/// Read a file's bytes; returns false and sets *error on failure.
bool read_file(const std::string& path, std::string& out, std::string* error);

}  // namespace vmcw::check
