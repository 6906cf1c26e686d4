#include "lint.h"

#include <algorithm>
#include <set>
#include <utility>

namespace vmcw::lint {

namespace {

using check::Tok;
using check::Token;
using check::cat;
using check::next_text;
using check::prev_text;
using check::skip_group;

// ---------------------------------------------------------------------------
// Small token helpers.
// ---------------------------------------------------------------------------

bool is(const Token& t, std::string_view text) { return t.text == text; }

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

constexpr std::string_view kRuleRng = "nondeterministic-rng";
constexpr std::string_view kRuleClock = "wall-clock";
constexpr std::string_view kRuleUnordered = "unordered-iteration";
constexpr std::string_view kRuleThread = "thread-identity";
constexpr std::string_view kRuleGlobal = "mutable-global";
constexpr std::string_view kRuleRngCtor = "rng-construction";

void add(std::vector<Violation>& out, std::string_view file, std::size_t line,
         std::string_view rule, std::string message) {
  out.push_back({std::string(file), line, std::string(rule),
                 std::move(message)});
}

bool member_access(std::string_view prev) {
  return prev == "." || prev == "->";
}

/// nondeterministic-rng: banned identifiers and C rand calls.
void rule_nondeterministic_rng(const std::vector<Token>& toks,
                               std::string_view file,
                               std::vector<Violation>& out) {
  static const std::set<std::string_view> kBanned = {
      "random_device", "srand",   "srandom",       "drand48",
      "lrand48",       "mrand48", "erand48",       "rand_r",
      "random_shuffle"};
  static const std::set<std::string_view> kEngines = {
      "mt19937",      "mt19937_64",   "default_random_engine",
      "minstd_rand",  "minstd_rand0", "knuth_b",
      "ranlux24",     "ranlux48",     "ranlux24_base",
      "ranlux48_base"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    const std::string_view t = toks[i].text;
    if (kBanned.count(t)) {
      add(out, file, toks[i].line, kRuleRng,
          cat("'", t,
              "' is nondeterministic; derive randomness from a keyed "
              "Rng::fork stream"));
    } else if (kEngines.count(t)) {
      add(out, file, toks[i].line, kRuleRng,
          cat("<random> engine '", t,
              "' bypasses util/rng.h; all streams must come from Rng"));
    } else if (t == "rand" && next_text(toks, i) == "(" &&
               !member_access(prev_text(toks, i))) {
      add(out, file, toks[i].line, kRuleRng,
          "rand() is nondeterministic across platforms and seeds globally; "
          "use a forked Rng");
    }
  }
}

/// wall-clock: clock reads in result-affecting code.
void rule_wall_clock(const std::vector<Token>& toks, std::string_view file,
                     std::vector<Violation>& out) {
  static const std::set<std::string_view> kBanned = {
      "system_clock", "steady_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime", "timespec_get",
      "localtime",    "localtime_r",  "gmtime",
      "gmtime_r",     "strftime",     "ctime",
      "mktime"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    const std::string_view t = toks[i].text;
    if (kBanned.count(t)) {
      add(out, file, toks[i].line, kRuleClock,
          cat("wall-clock read '", t,
              "' in result-affecting code; time may only flow into "
              "telemetry (allowlisted files)"));
    } else if ((t == "time" || t == "clock") && next_text(toks, i) == "(" &&
               !member_access(prev_text(toks, i))) {
      add(out, file, toks[i].line, kRuleClock,
          cat(t, "() reads the wall clock; results must not depend on "
                 "when they ran"));
    }
  }
}

/// thread-identity: results must not observe which/how many threads run.
void rule_thread_identity(const std::vector<Token>& toks,
                          std::string_view file,
                          std::vector<Violation>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind == Tok::kString) {
      if (tok.text.find("VMCW_THREADS") != std::string_view::npos)
        add(out, file, tok.line, kRuleThread,
            "\"VMCW_THREADS\" read outside the thread pool; thread count "
            "must never reach result code");
      continue;
    }
    if (tok.kind != Tok::kIdent) continue;
    if (tok.text == "get_id" && i >= 2 && is(toks[i - 1], "::") &&
        is(toks[i - 2], "this_thread")) {
      add(out, file, tok.line, kRuleThread,
          "this_thread::get_id() makes results depend on scheduling");
    } else if (tok.text == "hardware_concurrency") {
      add(out, file, tok.line, kRuleThread,
          "hardware_concurrency() outside the thread pool; sizing "
          "decisions belong to ThreadPool::default_concurrency");
    } else if (tok.text == "VMCW_THREADS") {
      add(out, file, tok.line, kRuleThread,
          "VMCW_THREADS consulted outside the thread pool");
    }
  }
}

/// unordered-iteration: range-for over a container declared unordered in
/// this file.
void rule_unordered_iteration(const std::vector<Token>& toks,
                              std::string_view file,
                              std::vector<Violation>& out) {
  static const std::set<std::string_view> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || !kUnordered.count(toks[i].text))
      continue;
    std::size_t j = i + 1;
    if (j < toks.size() && is(toks[j], "<")) j = skip_group(toks, j);
    while (j < toks.size() &&
           (is(toks[j], "&") || is(toks[j], "*") || is(toks[j], "&&")))
      ++j;
    if (j < toks.size() && toks[j].kind == Tok::kIdent &&
        next_text(toks, j) != "(")  // skip function return types
      names.insert(toks[j].text);
  }
  if (names.empty()) return;

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!(toks[i].kind == Tok::kIdent && is(toks[i], "for") &&
          is(toks[i + 1], "(")))
      continue;
    const std::size_t close = skip_group(toks, i + 1);
    // Find the range-for ':' at paren depth 1.
    int depth = 0;
    std::size_t colon = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      const std::string_view t = toks[j].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      else if (t == ")" || t == "]" || t == "}") --depth;
      else if (t == ":" && depth == 1) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    for (std::size_t j = colon + 1; j + 1 < close; ++j) {
      if (toks[j].kind == Tok::kIdent && names.count(toks[j].text)) {
        add(out, file, toks[i].line, kRuleUnordered,
            cat("iterating unordered container '", toks[j].text,
                "'; hash order is nondeterministic across platforms — use "
                "an ordered container or sort first"));
        break;
      }
    }
  }
}

/// rng-construction: Rng objects outside util/rng must come from fork().
void rule_rng_construction(const std::vector<Token>& toks,
                           std::string_view file,
                           std::vector<Violation>& out) {
  // Do the parenthesized tokens look like a parameter list (declaration)
  // rather than constructor arguments? Two adjacent identifiers — a type
  // followed by a parameter name — or parameter-ish keywords decide.
  auto param_list_like = [&](std::size_t open) {
    const std::size_t close = skip_group(toks, open);
    for (std::size_t j = open + 1; j + 1 < close; ++j) {
      const Token& t = toks[j];
      if (t.kind == Tok::kIdent &&
          (t.text == "const" || t.text == "auto" || t.text == "class" ||
           t.text == "struct" || t.text == "typename"))
        return true;
      if (t.kind == Tok::kIdent && toks[j + 1].kind == Tok::kIdent)
        return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || !is(toks[i], "Rng")) continue;
    const std::string_view prev = prev_text(toks, i);
    if (prev == "class" || prev == "struct" || prev == "." || prev == "->")
      continue;
    const std::string_view next = next_text(toks, i);
    std::size_t report = toks[i].line;
    if (next == "(") {
      // Direct temporary `Rng(seed)` vs constructor declaration `Rng(...)`
      // inside class Rng (allowlisted file) — parameter lists pass.
      const std::size_t open = i + 1;
      if (param_list_like(open)) continue;
      const std::size_t close = skip_group(toks, open);
      if (close - open <= 2) {
        // `Rng()` — flag only in expression position.
        if (!(prev == "return" || prev == "=" || prev == "(" ||
              prev == "," || prev == "{"))
          continue;
      }
      add(out, file, report, kRuleRngCtor,
          "direct Rng construction; derive this stream from a keyed "
          "fork of its parent (root streams: suppress inline + declare "
          "in the lint config)");
    } else if (next == "{") {
      add(out, file, report, kRuleRngCtor,
          "direct Rng construction; derive this stream from a keyed "
          "fork of its parent");
    } else if (i + 2 < toks.size() && toks[i + 1].kind == Tok::kIdent &&
               (is(toks[i + 2], "(") || is(toks[i + 2], "{"))) {
      // `Rng name(args)` / `Rng name{args}` — a declaration with
      // constructor arguments, unless the parens are a parameter list
      // (then it declares a function returning Rng).
      const std::size_t open = i + 2;
      if (is(toks[open], "(")) {
        const std::size_t close = skip_group(toks, open);
        if (close - open <= 2 || param_list_like(open)) continue;
      }
      add(out, file, toks[i + 1].line, kRuleRngCtor,
          cat("Rng '", toks[i + 1].text,
              "' constructed from a raw seed; derive it from a keyed "
              "fork of its parent"));
    }
  }
}

/// mutable-global: non-const globals, statics and thread_locals.
void rule_mutable_global(const std::vector<Token>& toks,
                         std::string_view file,
                         std::vector<Violation>& out) {
  enum class Scope { kNamespace, kType, kFunc };
  std::vector<Scope> scopes;  // implicit global namespace at bottom
  auto at_namespace = [&] {
    return std::all_of(scopes.begin(), scopes.end(),
                       [](Scope s) { return s == Scope::kNamespace; });
  };
  auto in_type = [&] {
    return !scopes.empty() && scopes.back() == Scope::kType;
  };

  std::size_t stmt = 0;  // first token of the current statement

  auto contains = [&](std::size_t lo, std::size_t hi, std::string_view w) {
    for (std::size_t j = lo; j < hi; ++j)
      if (toks[j].kind == Tok::kIdent && toks[j].text == w) return true;
    return false;
  };

  // Classify and maybe flag the declaration statement [lo, hi).
  auto check_decl = [&](std::size_t lo, std::size_t hi) {
    if (lo >= hi) return;
    const bool is_static = contains(lo, hi, "static");
    const bool is_tls = contains(lo, hi, "thread_local");
    if (!at_namespace() && !is_static && !is_tls) return;
    if (in_type() && !is_static) return;  // plain members are fine
    for (const std::string_view skip :
         {"using", "typedef", "friend", "static_assert", "extern",
          "template", "operator", "enum", "class", "struct", "union",
          "namespace", "concept", "requires", "return", "if", "goto"})
      if (contains(lo, hi, skip)) return;
    if (contains(lo, hi, "const") || contains(lo, hi, "constexpr") ||
        contains(lo, hi, "constinit"))
      return;
    // A '(' before any '=' means a function declaration/definition.
    bool has_ident = false;
    for (std::size_t j = lo; j < hi; ++j) {
      if (is(toks[j], "(")) return;
      if (is(toks[j], "=")) break;
      if (toks[j].kind == Tok::kIdent) has_ident = true;
    }
    if (!has_ident) return;
    const char* what = is_tls ? "thread_local variable"
                      : is_static ? "static variable"
                                  : "namespace-scope variable";
    add(out, file, toks[lo].line, kRuleGlobal,
        cat("mutable ", what,
            "; shared mutable state breaks deterministic replay — make it "
            "const, pass it explicitly, or allowlist it with a "
            "justification"));
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string_view t = toks[i].text;
    if (t == ";") {
      check_decl(stmt, i);
      stmt = i + 1;
    } else if (t == "}") {
      if (!scopes.empty()) scopes.pop_back();
      stmt = i + 1;
    } else if (t == "{") {
      // Classify the scope this brace opens from its statement prefix.
      const std::size_t lo = stmt;
      int paren_depth = 0;
      bool fn = false;
      for (std::size_t j = lo; j < i; ++j) {
        if (is(toks[j], "(")) {
          ++paren_depth;
          fn = true;
        } else if (is(toks[j], ")")) {
          --paren_depth;
        }
      }
      if (paren_depth > 0) {
        // A brace inside an open paren (`predictor = {}` default argument,
        // a braced call argument): an expression, not a scope — skip it,
        // the statement continues.
        const std::size_t close = skip_group(toks, i);
        i = close == 0 ? i : close - 1;
        continue;
      }
      if (contains(lo, i, "namespace") ||
          (contains(lo, i, "extern") && !fn)) {
        scopes.push_back(Scope::kNamespace);
      } else if (!fn && (contains(lo, i, "class") ||
                         contains(lo, i, "struct") ||
                         contains(lo, i, "union") ||
                         contains(lo, i, "enum"))) {
        scopes.push_back(Scope::kType);
      } else if (i > lo &&
                 (is(toks[i - 1], "=") ||
                  (!fn && (toks[i - 1].kind == Tok::kIdent ||
                           is(toks[i - 1], ">"))))) {
        // Brace initializer of a declaration (`std::atomic<T> g{...};`):
        // not a scope — skip it, the declaration ends at the ';'.
        const std::size_t close = skip_group(toks, i);
        check_decl(lo, i);
        i = close == toks.size() ? close - 1 : close - 1;
        // The init braces were part of the statement; resume after them.
        stmt = i + 1;
        // Consume a trailing ';' if present.
        if (i + 1 < toks.size() && is(toks[i + 1], ";")) {
          ++i;
          stmt = i + 1;
        }
      } else {
        scopes.push_back(Scope::kFunc);
      }
      if (!(stmt > i)) stmt = i + 1;
    }
  }
}

}  // namespace

std::vector<Violation> lint_file_raw(std::string_view path,
                                     const std::vector<Token>& toks) {
  std::vector<Violation> raw;
  rule_nondeterministic_rng(toks, path, raw);
  rule_wall_clock(toks, path, raw);
  rule_unordered_iteration(toks, path, raw);
  rule_thread_identity(toks, path, raw);
  rule_mutable_global(toks, path, raw);
  rule_rng_construction(toks, path, raw);
  return raw;
}

}  // namespace vmcw::lint
