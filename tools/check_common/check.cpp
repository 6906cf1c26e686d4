#include "check.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

namespace vmcw::check {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

void add(std::vector<Violation>& out, std::string_view file, std::size_t line,
         std::string_view rule, std::string message) {
  out.push_back({std::string(file), line, std::string(rule),
                 std::move(message)});
}

}  // namespace

std::vector<Token> tokenize(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0, line = 1;
  const std::size_t n = src.size();
  bool line_has_token = false;  // anything but whitespace seen on this line

  auto peek = [&](std::size_t k) -> char {
    return i + k < n ? src[i + k] : '\0';
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      line_has_token = false;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: '#' as the first non-space character of a
    // line swallows the directive, honoring backslash continuations.
    if (c == '#' && !line_has_token) {
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && peek(1) == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      continue;
    }
    line_has_token = true;
    if (c == '/' && peek(1) == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
      continue;
    }
    // Raw string literal R"delim( ... )delim"
    if (c == 'R' && peek(1) == '"') {
      std::size_t d = i + 2;
      while (d < n && src[d] != '(' && src[d] != '"') ++d;
      if (d < n && src[d] == '(') {
        const std::string closer =
            ")" + std::string(src.substr(i + 2, d - (i + 2))) + "\"";
        const std::size_t start = d + 1;
        const std::size_t end = src.find(closer, start);
        const std::size_t stop = end == std::string_view::npos
                                     ? n
                                     : end + closer.size();
        out.push_back({Tok::kString,
                       src.substr(start, (end == std::string_view::npos
                                              ? n
                                              : end) -
                                             start),
                       line});
        for (std::size_t k = i; k < stop; ++k)
          if (src[k] == '\n') ++line;
        i = stop;
        continue;
      }
    }
    if (c == '"') {
      const std::size_t start = ++i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\') ++i;
        if (i < n && src[i] == '\n') ++line;
        ++i;
      }
      out.push_back({Tok::kString, src.substr(start, i - start), line});
      if (i < n) ++i;
      continue;
    }
    if (c == '\'') {
      ++i;
      while (i < n && src[i] != '\'') {
        if (src[i] == '\\') ++i;
        ++i;
      }
      if (i < n) ++i;
      continue;
    }
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(src[i])) ++i;
      out.push_back({Tok::kIdent, src.substr(start, i - start), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = i;
      while (i < n && (ident_char(src[i]) || src[i] == '.' ||
                       ((src[i] == '+' || src[i] == '-') && i > start &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                         src[i - 1] == 'p' || src[i - 1] == 'P'))))
        ++i;
      out.push_back({Tok::kNumber, src.substr(start, i - start), line});
      continue;
    }
    // Multi-character operators we care to keep atomic.
    static constexpr std::array<std::string_view, 18> kOps = {
        "::", "->", "<<=", ">>=", "<<", ">>", "<=", ">=", "==", "!=",
        "&&", "||", "+=", "-=",  "*=", "/=", "|=", "&="};
    std::string_view matched;
    for (const std::string_view op : kOps) {
      if (src.substr(i, op.size()) == op) {
        matched = op;
        break;
      }
    }
    if (!matched.empty()) {
      out.push_back({Tok::kPunct, src.substr(i, matched.size()), line});
      i += matched.size();
      continue;
    }
    out.push_back({Tok::kPunct, src.substr(i, 1), line});
    ++i;
  }
  return out;
}

std::string_view prev_text(const std::vector<Token>& toks, std::size_t i) {
  return i == 0 ? std::string_view{} : toks[i - 1].text;
}

std::string_view next_text(const std::vector<Token>& toks, std::size_t i) {
  return i + 1 < toks.size() ? toks[i + 1].text : std::string_view{};
}

std::size_t skip_group(const std::vector<Token>& toks, std::size_t open) {
  const std::string_view o = toks[open].text;
  const bool angle = o == "<";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const std::string_view t = toks[i].text;
    if (angle) {
      if (t == "<") ++depth;
      else if (t == ">") --depth;
      else if (t == ">>") depth -= 2;
      else if (t == ";" || t == "{") return toks.size();  // not a template
      if (depth <= 0) return i + 1;
    } else {
      if (t == "(" || t == "[" || t == "{") ++depth;
      else if (t == ")" || t == "]" || t == "}") --depth;
      if (depth == 0) return i + 1;
    }
  }
  return toks.size();
}

const std::vector<std::string>& known_rule_names() {
  static const std::vector<std::string> kNames = {
      // lexical (tools/vmcw_lint, per file)
      "nondeterministic-rng", "wall-clock", "unordered-iteration",
      "thread-identity", "mutable-global", "rng-construction",
      // whole-program (tools/vmcw_analyze)
      "fork-key-collision", "lock-order-cycle", "layering", "durable-write",
      "stale-config"};
  return kNames;
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative '*' glob (no character classes needed).
  std::size_t p = 0, t = 0, star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == text[t] || pattern[p] == '?')) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

bool Config::parse(std::string_view text, Config& out, std::string* error) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string line(text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos));
    ++line_no;
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;

    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream in(line);
    std::string kind;
    if (!(in >> kind)) continue;
    if (kind != "allow" && kind != "allow-inline") {
      if (error)
        *error = "config line " + std::to_string(line_no) +
                 ": unknown directive '" + kind + "'";
      return false;
    }
    Entry entry;
    entry.line = line_no;
    std::string dashes;
    if (!(in >> entry.pattern >> entry.rule >> dashes) || dashes != "--") {
      if (error)
        *error = "config line " + std::to_string(line_no) +
                 ": expected '<kind> <path-glob> <rule> -- <justification>'";
      return false;
    }
    std::getline(in, entry.reason);
    entry.reason.erase(0, entry.reason.find_first_not_of(" \t"));
    if (entry.reason.empty()) {
      if (error)
        *error = "config line " + std::to_string(line_no) +
                 ": every allowlist entry needs a justification";
      return false;
    }
    const auto& names = known_rule_names();
    if (std::find(names.begin(), names.end(), entry.rule) == names.end()) {
      if (error)
        *error = "config line " + std::to_string(line_no) +
                 ": unknown rule '" + entry.rule + "'";
      return false;
    }
    (kind == "allow" ? out.allow : out.allow_inline)
        .push_back(std::move(entry));
  }
  return true;
}

bool Config::allows(std::string_view file, std::string_view rule) const {
  for (const Entry& e : allow)
    if (e.rule == rule && glob_match(e.pattern, file)) return true;
  return false;
}

bool Config::allows_inline(std::string_view file,
                           std::string_view rule) const {
  for (const Entry& e : allow_inline)
    if (e.rule == rule && glob_match(e.pattern, file)) return true;
  return false;
}

Suppressions scan_suppressions(std::string_view content) {
  Suppressions out;
  std::size_t line = 1;
  std::size_t pos = 0;
  while (pos <= content.size()) {
    const std::size_t eol = content.find('\n', pos);
    const std::string_view text =
        content.substr(pos, eol == std::string_view::npos ? content.size() - pos
                                                          : eol - pos);
    const std::size_t mark = text.find("vmcw-lint:");
    if (mark != std::string_view::npos) {
      const std::size_t open = text.find("allow(", mark);
      const std::size_t close =
          open == std::string_view::npos ? std::string_view::npos
                                         : text.find(')', open);
      if (open != std::string_view::npos && close != std::string_view::npos) {
        std::string_view rules =
            text.substr(open + 6, close - (open + 6));
        const std::size_t comment = text.find("//");
        const bool standalone =
            comment != std::string_view::npos &&
            text.find_first_not_of(" \t") == comment;
        std::size_t p = 0;
        while (p < rules.size()) {
          std::size_t q = rules.find(',', p);
          if (q == std::string_view::npos) q = rules.size();
          std::string rule(rules.substr(p, q - p));
          rule.erase(0, rule.find_first_not_of(" \t"));
          const std::size_t last = rule.find_last_not_of(" \t");
          rule.erase(last == std::string::npos ? 0 : last + 1);
          if (!rule.empty()) {
            out.all.push_back({line, rule, false});
            out.by_line[line].push_back(out.all.size() - 1);
            if (standalone) out.by_line[line + 1].push_back(out.all.size() - 1);
          }
          p = q + 1;
        }
      }
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
    ++line;
  }
  return out;
}

std::vector<Violation> apply_suppressions(std::string_view path,
                                          const Config& config,
                                          std::vector<Violation> raw,
                                          Suppressions suppressions,
                                          std::vector<std::string>* used_rules) {
  const auto& known = known_rule_names();
  std::vector<Violation> kept;
  for (Violation& v : raw) {
    if (config.allows(path, v.rule)) continue;
    bool suppressed = false;
    const auto it = suppressions.by_line.find(v.line);
    if (it != suppressions.by_line.end()) {
      for (const std::size_t s : it->second) {
        if (suppressions.all[s].rule == v.rule) {
          suppressions.all[s].used = true;
          suppressed = true;
        }
      }
    }
    if (!suppressed) kept.push_back(std::move(v));
  }

  // Inline suppressions are only legal when the checked-in config declares
  // them — and a suppression that no longer suppresses anything must be
  // deleted, so stale escapes can't accumulate.
  std::set<std::pair<std::size_t, std::string>> seen;
  for (const Suppression& s : suppressions.all) {
    if (std::find(known.begin(), known.end(), s.rule) == known.end()) continue;
    if (!seen.insert({s.comment_line, s.rule}).second) continue;
    if (s.used && !config.allows_inline(path, s.rule)) {
      add(kept, path, s.comment_line, kRuleUndeclaredSuppression,
          cat("inline suppression of '", s.rule,
              "' is not declared in the lint config; add an allow-inline "
              "entry with a justification"));
    } else if (!s.used) {
      add(kept, path, s.comment_line, kRuleUnusedSuppression,
          cat("suppression of '", s.rule,
              "' matches no violation on this line; delete it"));
    } else if (used_rules) {
      used_rules->push_back(s.rule);
    }
  }
  return kept;
}

bool list_source_files(const std::string& root,
                       const std::vector<std::string>& paths,
                       std::vector<SourceFile>& out, std::string* error) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  const fs::path base(root);
  for (const std::string& p : paths) {
    const fs::path full = base / p;
    std::error_code ec;
    if (fs::is_directory(full, ec)) {
      for (fs::recursive_directory_iterator it(full, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc")
          files.push_back(it->path());
      }
    } else if (fs::is_regular_file(full, ec)) {
      files.push_back(full);
    } else {
      if (error) *error = "no such file or directory: " + full.string();
      return false;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  for (const fs::path& file : files) {
    const std::string rel = file.lexically_normal()
                                .lexically_relative(base.lexically_normal())
                                .generic_string();
    const bool escapes_root = rel.empty() || rel.starts_with("..");
    out.push_back({escapes_root ? file.generic_string() : rel,
                   file.string()});
  }
  return true;
}

bool read_file(const std::string& path, std::string& out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

}  // namespace vmcw::check
