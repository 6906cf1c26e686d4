#include "analyze.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "lint.h"

namespace vmcw::analyze {
namespace {

using check::cat;
using check::next_text;
using check::prev_text;
using check::skip_group;
using check::Tok;
using check::Token;

constexpr std::string_view kRuleFork = "fork-key-collision";
constexpr std::string_view kRuleLock = "lock-order-cycle";
constexpr std::string_view kRuleLayer = "layering";
constexpr std::string_view kRuleWrite = "durable-write";
constexpr std::string_view kRuleStale = "stale-config";

void add(std::vector<Violation>& out, std::string_view file, std::size_t line,
         std::string_view rule, std::string message) {
  out.push_back(
      {std::string(file), line, std::string(rule), std::move(message)});
}

bool is_keyword(std::string_view t) {
  static const std::set<std::string_view> kw = {
      "if",       "for",     "while",   "switch",   "return", "sizeof",
      "new",      "delete",  "catch",   "throw",    "else",   "do",
      "case",     "default", "const",   "constexpr", "static", "inline",
      "auto",     "void",    "bool",    "int",      "char",   "unsigned",
      "long",     "short",   "double",  "float",    "using",  "typedef",
      "template", "typename", "class",  "struct",   "enum",   "union",
      "public",   "private", "protected", "virtual", "override", "final",
      "noexcept", "operator", "co_return", "co_await", "alignof",
      "decltype", "static_cast", "dynamic_cast", "reinterpret_cast",
      "const_cast", "static_assert", "assert", "defined", "explicit",
      "namespace", "this", "nullptr", "true", "false", "mutable",
      "friend", "extern", "goto", "try", "break", "continue"};
  return kw.count(t) != 0;
}

// ---------------------------------------------------------------------------
// Per-file extraction.
// ---------------------------------------------------------------------------

/// The tokenizer consumes preprocessor directives, so include edges come
/// from a plain line scan over the raw bytes.
void extract_includes(std::string_view content, std::vector<IncludeEdge>& out) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= content.size()) {
    const std::size_t eol = content.find('\n', pos);
    std::string_view line = content.substr(
        pos, eol == std::string_view::npos ? content.size() - pos : eol - pos);
    ++line_no;
    pos = eol == std::string_view::npos ? content.size() + 1 : eol + 1;

    std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string_view::npos || line[i] != '#') continue;
    i = line.find_first_not_of(" \t", i + 1);
    if (i == std::string_view::npos || line.substr(i, 7) != "include") continue;
    const std::size_t open = line.find('"', i + 7);
    if (open == std::string_view::npos) continue;  // <...> system includes
    const std::size_t close = line.find('"', open + 1);
    if (close == std::string_view::npos) continue;
    out.push_back(
        {std::string(line.substr(open + 1, close - open - 1)), line_no});
  }
}

std::string_view strip_quotes(std::string_view s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
    return s.substr(1, s.size() - 2);
  return s;
}

/// Lexical scope tracking: one frame per '{'. Function frames carry the
/// signature-derived name and the set of locks held for their duration.
struct Frame {
  enum class Kind { kNamespace, kType, kFunction, kBlock };
  Kind kind = Kind::kBlock;
  std::string name;  ///< type name for kType, qualified name for kFunction
};

struct ActiveLock {
  std::string name;   ///< raw member/variable name as written
  std::size_t depth;  ///< scope-stack size when declared (dies on pop below)
};

/// Identifiers that open a RAII lock scope: `X name(mutex...)`.
bool is_lock_class(std::string_view t) {
  return t == "MutexLock" || t == "lock_guard" || t == "unique_lock" ||
         t == "scoped_lock";
}

/// Extract the last identifier of each top-level comma-separated argument
/// inside the group opened at `open` — for `lk(a.mu_, other_->mu2_)` that is
/// {mu_, mu2_}. Deferral arguments (std::defer_lock etc.) are skipped.
std::vector<std::string> lock_args(const std::vector<Token>& toks,
                                   std::size_t open, std::size_t close) {
  std::vector<std::string> out;
  std::string last;
  std::size_t depth = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const std::string_view t = toks[i].text;
    if (t == "(" || t == "[" || t == "{") {
      ++depth;
      continue;
    }
    if (t == ")" || t == "]" || t == "}") {
      --depth;
      continue;
    }
    if (depth == 0 && t == ",") {
      if (!last.empty() && last != "defer_lock" && last != "adopt_lock" &&
          last != "try_to_lock")
        out.push_back(last);
      last.clear();
      continue;
    }
    if (toks[i].kind == Tok::kIdent) last = std::string(t);
  }
  if (!last.empty() && last != "defer_lock" && last != "adopt_lock" &&
      last != "try_to_lock")
    out.push_back(last);
  return out;
}

/// Arguments of an annotation group `VMCW_REQUIRES(a, b)` → {a, b}.
std::vector<std::string> annotation_args(const std::vector<Token>& toks,
                                         std::size_t macro_index) {
  if (next_text(toks, macro_index) != "(") return {};
  const std::size_t past = skip_group(toks, macro_index + 1);
  // lock_args iterates the open interval (open, close): pass the ')' index.
  return lock_args(toks, macro_index + 1, past == 0 ? 0 : past - 1);
}

/// Classify the statement prefix [stmt, open) for the '{' at `open`, and
/// extract the type or function name.
Frame classify_brace(const std::vector<Token>& toks, std::size_t stmt,
                     std::size_t open, const std::vector<Frame>& scopes,
                     std::vector<std::string>* requires_out,
                     std::vector<std::string>* acquire_out) {
  Frame f;
  const bool in_code =
      !scopes.empty() && (scopes.back().kind == Frame::Kind::kFunction ||
                          scopes.back().kind == Frame::Kind::kBlock);
  if (stmt >= open) {
    f.kind = Frame::Kind::kBlock;
    return f;
  }
  const std::string_view first = toks[stmt].text;
  if (first == "if" || first == "for" || first == "while" ||
      first == "switch" || first == "do" || first == "else" ||
      first == "try" || first == "catch") {
    f.kind = Frame::Kind::kBlock;
    return f;
  }
  // `namespace foo {`, `class Foo : public Bar {`, `struct Foo {` …
  for (std::size_t i = stmt; i < open; ++i) {
    const std::string_view t = toks[i].text;
    if (t == "namespace") {
      f.kind = Frame::Kind::kNamespace;
      return f;
    }
    if ((t == "class" || t == "struct" || t == "enum" || t == "union") &&
        !in_code) {
      // Name = last identifier before the base-clause ':' or the '{'
      // (skips attribute macros like VMCW_CAPABILITY("mutex")).
      f.kind = Frame::Kind::kType;
      for (std::size_t j = i + 1; j < open; ++j) {
        if (toks[j].text == ":") break;
        if (toks[j].text == "(") {
          j = skip_group(toks, j) - 1;
          continue;
        }
        if (toks[j].kind == Tok::kIdent && !is_keyword(toks[j].text))
          f.name = std::string(toks[j].text);
      }
      return f;
    }
  }
  if (in_code) {
    f.kind = Frame::Kind::kBlock;
    return f;
  }
  // Function definition: the identifier before the first top-level '(' in
  // the statement names it; a preceding `Class ::` chain qualifies it.
  // Everything else at namespace/type scope (brace-init, arrays) is opaque.
  std::size_t paren = open;
  for (std::size_t i = stmt; i < open; ++i) {
    if (toks[i].text == "=") {  // `auto cmp = [](...) {` and brace-init
      f.kind = Frame::Kind::kBlock;
      return f;
    }
    if (toks[i].text == "(") {
      paren = i;
      break;
    }
  }
  if (paren == open || paren == stmt ||
      toks[paren - 1].kind != Tok::kIdent ||
      is_keyword(toks[paren - 1].text)) {
    f.kind = Frame::Kind::kBlock;
    return f;
  }
  f.kind = Frame::Kind::kFunction;
  std::string name(toks[paren - 1].text);
  std::string owner;
  if (paren >= 3 && toks[paren - 2].text == "::" &&
      toks[paren - 3].kind == Tok::kIdent) {
    owner = std::string(toks[paren - 3].text);
  } else if (!scopes.empty() && scopes.back().kind == Frame::Kind::kType) {
    owner = scopes.back().name;
  }
  f.name = owner.empty() ? name : cat(owner, "::", name);
  // Thread-safety annotations sit between the parameter list's ')' and the
  // '{'; REQUIRES members are held for the whole body, ACQUIRE members are
  // what the function locks on behalf of its caller.
  for (std::size_t i = skip_group(toks, paren); i < open; ++i) {
    const std::string_view t = toks[i].text;
    if (t == "VMCW_REQUIRES" && requires_out) {
      auto args = annotation_args(toks, i);
      requires_out->insert(requires_out->end(), args.begin(), args.end());
    } else if (t == "VMCW_ACQUIRE" && acquire_out) {
      auto args = annotation_args(toks, i);
      acquire_out->insert(acquire_out->end(), args.begin(), args.end());
    }
  }
  return f;
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      std::string(kRuleFork), std::string(kRuleLock), std::string(kRuleLayer),
      std::string(kRuleWrite), std::string(kRuleStale)};
  return names;
}

int module_tier(std::string_view module) {
  // DESIGN.md §5d layer order. Same-tier cross-includes are legal; a module
  // may include same or lower tiers only. Directories not listed (tests,
  // fixtures) are exempt from the tier check.
  if (module == "util") return 0;
  if (module == "runtime") return 1;
  if (module == "core" || module == "trace" || module == "hardware" ||
      module == "analysis" || module == "migration" ||
      module == "monitoring")
    return 2;
  if (module == "topology" || module == "chaos" || module == "validation")
    return 3;
  if (module == "engine" || module == "scale" || module == "sweep") return 4;
  if (module == "service" || module == "report") return 5;
  return -1;
}

FileIndex index_file(std::string_view path, std::string_view content) {
  FileIndex idx;
  idx.path = std::string(path);
  extract_includes(content, idx.includes);
  idx.suppressions = check::scan_suppressions(content);

  const std::vector<Token> toks = check::tokenize(content);
  idx.raw = lint::lint_file_raw(path, toks);

  // One linear walk drives everything that needs scope context: Rng decls
  // and fork sites, mutex member decls, lock scopes and call events.
  std::vector<Frame> scopes;
  std::vector<ActiveLock> locks;
  std::vector<std::string> fn_requires;  // REQUIRES(...) of current function
  std::size_t stmt = 0;

  const auto current_function = [&]() -> FunctionInfo* {
    for (std::size_t i = scopes.size(); i-- > 0;)
      if (scopes[i].kind == Frame::Kind::kFunction)
        return idx.functions.empty() ? nullptr : &idx.functions.back();
    return nullptr;
  };
  const auto held_now = [&]() {
    std::vector<std::string> held = fn_requires;
    for (const ActiveLock& l : locks) held.push_back(l.name);
    std::sort(held.begin(), held.end());
    held.erase(std::unique(held.begin(), held.end()), held.end());
    return held;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    const std::string_view t = tok.text;

    if (t == "{") {
      std::vector<std::string> req, acq;
      Frame f = classify_brace(toks, stmt, i, scopes, &req, &acq);
      if (f.kind == Frame::Kind::kFunction) {
        FunctionInfo fn;
        fn.qualified = f.name;
        const std::size_t sep = f.name.rfind("::");
        fn.name = sep == std::string::npos ? f.name : f.name.substr(sep + 2);
        fn.annotation_acquires = acq;
        fn.line = tok.line;
        idx.functions.push_back(std::move(fn));
        fn_requires = req;
        // ACQUIRE members are held below this point too.
        for (const std::string& a : acq)
          locks.push_back({a, scopes.size() + 1});
      }
      scopes.push_back(std::move(f));
      stmt = i + 1;
      continue;
    }
    if (t == "}") {
      if (!scopes.empty()) {
        const Frame done = scopes.back();
        scopes.pop_back();
        while (!locks.empty() && locks.back().depth > scopes.size())
          locks.pop_back();
        if (done.kind == Frame::Kind::kFunction) fn_requires.clear();
      }
      stmt = i + 1;
      continue;
    }
    if (t == ";") {
      stmt = i + 1;
      continue;
    }
    if (tok.kind != Tok::kIdent) continue;

    const bool in_function = current_function() != nullptr;

    // --- Rng declarations: `Rng name`, `Rng& name`, `mutable Rng name`. ---
    if (t == "Rng" && prev_text(toks, i) != "class" &&
        prev_text(toks, i) != "struct") {
      std::size_t j = i + 1;
      while (j < toks.size() &&
             (toks[j].text == "&" || toks[j].text == "*" ||
              toks[j].text == "&&" || toks[j].text == "const"))
        ++j;
      if (j < toks.size() && toks[j].kind == Tok::kIdent &&
          !is_keyword(toks[j].text))
        idx.rng_decls.push_back({std::string(toks[j].text), toks[j].line});
      continue;
    }

    // --- Fork sites: `recv.fork("key")` / `recv.fork("prefix" + expr)`. ---
    if (t == "fork" && next_text(toks, i) == "(" &&
        (prev_text(toks, i) == "." || prev_text(toks, i) == "->")) {
      if (i < 2 || toks[i - 2].kind != Tok::kIdent) continue;  // temp().fork
      ForkSite site;
      site.receiver = std::string(toks[i - 2].text);
      FunctionInfo* fn = current_function();
      site.function = fn ? fn->qualified : "";
      site.line = tok.line;
      if (i + 2 < toks.size() && toks[i + 2].kind == Tok::kString) {
        site.key = std::string(strip_quotes(toks[i + 2].text));
        site.is_prefix = i + 3 < toks.size() && toks[i + 3].text == "+";
      } else if (i + 2 < toks.size() && toks[i + 2].text != ")") {
        site.dynamic = true;  // fork(expr): key not statically known
      } else {
        continue;  // fork() — the sequential-child form, always distinct
      }
      idx.forks.push_back(std::move(site));
      continue;
    }

    // --- Mutex member declarations: `Mutex name_;` at type scope. ---
    if (t == "Mutex" && prev_text(toks, i) != "class" &&
        prev_text(toks, i) != "struct" && next_text(toks, i) != "(" &&
        !in_function) {
      if (i + 1 < toks.size() && toks[i + 1].kind == Tok::kIdent &&
          !is_keyword(toks[i + 1].text)) {
        std::string owner;
        for (std::size_t s = scopes.size(); s-- > 0;) {
          if (scopes[s].kind == Frame::Kind::kType) {
            owner = scopes[s].name;
            break;
          }
          if (scopes[s].kind == Frame::Kind::kFunction) break;
        }
        idx.mutexes.push_back(
            {owner, std::string(toks[i + 1].text), toks[i + 1].line});
      }
      continue;
    }

    // --- Lock scopes: `MutexLock lk(mu_);` and the std RAII guards. ---
    if (is_lock_class(t) && in_function) {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<") j = skip_group(toks, j);
      if (j < toks.size() && toks[j].kind == Tok::kIdent &&
          j + 1 < toks.size() && toks[j + 1].text == "(") {
        const std::size_t close = skip_group(toks, j + 1);
        const auto mutexes = lock_args(toks, j + 1, close - 1);
        FunctionInfo* fn = current_function();
        for (const std::string& m : mutexes) {
          LockEvent ev;
          ev.kind = LockEvent::Kind::kAcquire;
          ev.target = m;
          ev.held = held_now();
          ev.line = tok.line;
          fn->events.push_back(std::move(ev));
          locks.push_back({m, scopes.size()});
        }
        i = close - 1;
      }
      continue;
    }

    // --- Call events (for the cross-TU acquisition closure). ---
    if (in_function && next_text(toks, i) == "(" && !is_keyword(t) &&
        !is_lock_class(t) && t != "fork") {
      FunctionInfo* fn = current_function();
      LockEvent ev;
      ev.kind = LockEvent::Kind::kCall;
      ev.target = std::string(t);
      ev.held = held_now();
      ev.line = tok.line;
      fn->events.push_back(std::move(ev));
      continue;
    }
  }

  // --- Durable-write raw sites. ---
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind != Tok::kIdent) continue;
    const std::string_view t = tok.text;
    std::string_view what;
    if (t == "ofstream" || t == "fstream") {
      what = t;
    } else if ((t == "fopen" || t == "freopen" || t == "fwrite" ||
                t == "pwrite" || t == "pwritev" || t == "writev") &&
               next_text(toks, i) == "(") {
      what = t;
    } else if ((t == "write" || t == "open") && next_text(toks, i) == "(" &&
               prev_text(toks, i) == "::") {
      // `::write(...)` — global scope, not `Daemon::open(...)` (member
      // definition or qualified call, where an identifier or template
      // closer precedes the `::`).
      const std::string_view before = i >= 2 ? toks[i - 2].text : "";
      const bool qualified =
          (i >= 2 && toks[i - 2].kind == Tok::kIdent) || before == ">";
      if (!qualified) what = t;
    }
    if (what.empty()) continue;
    add(idx.raw, path, tok.line, kRuleWrite,
        cat("raw durable write via '", what,
            "'; durable bytes must flow through write_file_atomic or "
            "runtime/record_log"));
  }
  return idx;
}

// ---------------------------------------------------------------------------
// Merge-time rules.
// ---------------------------------------------------------------------------

namespace {

std::string dir_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? std::string()
                                         : std::string(path.substr(0, slash));
}

std::string module_of(std::string_view path) {
  const std::size_t slash = path.find('/');
  return slash == std::string_view::npos ? std::string()
                                         : std::string(path.substr(0, slash));
}

std::string stem_of(std::string_view path) {
  const std::size_t dot = path.rfind('.');
  return std::string(path.substr(0, dot));
}

/// Generic SCC-based cycle reporting: nodes are strings, edges carry a
/// (file, line) witness. For every strongly connected component with a
/// cycle, report one violation whose message walks a shortest witness loop
/// from the component's smallest node.
struct CycleGraph {
  struct Edge {
    std::string to;
    std::string file;
    std::size_t line = 0;
  };
  /// One cycle: its witness text, the node it starts from, and the first
  /// edge's witness site, which anchors the report.
  struct Cycle {
    std::string witness;
    std::string origin;
    std::string file;
    std::size_t line = 0;
  };
  std::map<std::string, std::vector<Edge>> adj;

  void add_edge(const std::string& from, const std::string& to,
                const std::string& file, std::size_t line) {
    auto& edges = adj[from];
    for (const Edge& e : edges)
      if (e.to == to) return;  // keep the first witness per edge
    edges.push_back({to, file, line});
    adj.try_emplace(to);
    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) { return a.to < b.to; });
  }

  /// All cycles, one per SCC, ordered by witness text.
  std::vector<Cycle> cycles() const {
    // Iterative Tarjan (recursion depth is unbounded on path-shaped graphs).
    std::map<std::string, int> index, low, comp;
    std::vector<std::string> stack;
    std::set<std::string> on_stack;
    int next_index = 0, next_comp = 0;

    struct WorkItem {
      std::string node;
      std::size_t edge = 0;
    };
    for (const auto& [start, unused] : adj) {
      (void)unused;
      if (index.count(start)) continue;
      std::vector<WorkItem> work;
      work.push_back({start, 0});
      while (!work.empty()) {
        WorkItem& top = work.back();
        const auto& edges = adj.at(top.node);
        if (top.edge == 0) {
          index[top.node] = low[top.node] = next_index++;
          stack.push_back(top.node);
          on_stack.insert(top.node);
        } else {
          // Returned from a child: fold its lowlink in.
          const std::string& child = edges[top.edge - 1].to;
          low[top.node] = std::min(low[top.node], low[child]);
        }
        bool descended = false;
        while (top.edge < edges.size()) {
          const std::string& to = edges[top.edge].to;
          ++top.edge;
          if (!index.count(to)) {
            work.push_back({to, 0});
            descended = true;
            break;
          }
          if (on_stack.count(to))
            low[top.node] = std::min(low[top.node], index[to]);
        }
        if (descended) continue;
        if (low[top.node] == index[top.node]) {
          while (true) {
            const std::string n = stack.back();
            stack.pop_back();
            on_stack.erase(n);
            comp[n] = next_comp;
            if (n == top.node) break;
          }
          ++next_comp;
        }
        work.pop_back();
      }
    }

    // Component -> members (sorted; the first member anchors the witness).
    std::map<int, std::vector<std::string>> members;
    for (const auto& [node, c] : comp) members[c].push_back(node);

    std::vector<Cycle> out;
    for (auto& [c, nodes] : members) {
      std::sort(nodes.begin(), nodes.end());
      const std::string& origin = nodes.front();
      bool cyclic = nodes.size() > 1;
      if (!cyclic) {  // single node: cyclic only with a self-loop
        for (const Edge& e : adj.at(origin))
          if (e.to == origin) cyclic = true;
      }
      if (!cyclic) continue;

      // BFS within the component from `origin` back to itself.
      std::map<std::string, std::pair<std::string, const Edge*>> parent;
      std::vector<std::string> queue = {origin};
      const Edge* closing = nullptr;
      for (std::size_t q = 0; q < queue.size() && !closing; ++q) {
        const std::string& n = queue[q];
        for (const Edge& e : adj.at(n)) {
          if (comp.at(e.to) != c) continue;
          if (e.to == origin) {
            closing = &e;
            parent.try_emplace(origin + "\x01", std::make_pair(n, &e));
            break;
          }
          if (parent.try_emplace(e.to, std::make_pair(n, &e)).second)
            queue.push_back(e.to);
        }
      }
      if (!closing) continue;  // origin not on a cycle inside this SCC

      // Reconstruct origin -> ... -> origin.
      std::vector<const Edge*> path = {parent.at(origin + "\x01").second};
      std::string cur = parent.at(origin + "\x01").first;
      while (cur != origin) {
        path.push_back(parent.at(cur).second);
        cur = parent.at(cur).first;
      }
      std::reverse(path.begin(), path.end());

      std::ostringstream msg;
      msg << origin;
      for (const Edge* e : path)
        msg << " -> " << e->to << " (" << e->file << ":" << e->line << ")";
      out.push_back({msg.str(), origin, path.front()->file,
                     path.front()->line});
    }
    std::sort(out.begin(), out.end(), [](const Cycle& a, const Cycle& b) {
      return a.witness < b.witness;
    });
    return out;
  }
};

struct Program {
  std::vector<FileIndex> files;
  std::map<std::string, std::size_t> by_path;

  const FileIndex* find(const std::string& rel) const {
    const auto it = by_path.find(rel);
    return it == by_path.end() ? nullptr : &files[it->second];
  }
};

/// Resolve an include string to a walked file's rel path ("" if outside the
/// walk): either verbatim, or relative to the includer's directory.
std::string resolve_include(const Program& prog, const std::string& from,
                            const std::string& target) {
  if (prog.by_path.count(target)) return target;
  const std::string dir = dir_of(from);
  if (!dir.empty()) {
    const std::string local = cat(dir, "/", target);
    if (prog.by_path.count(local)) return local;
  }
  return std::string();
}

void rule_layering(const Program& prog, std::vector<Violation>& out) {
  CycleGraph files;
  for (const FileIndex& f : prog.files) {
    const std::string from_mod = module_of(f.path);
    const int from_tier = module_tier(from_mod);
    for (const IncludeEdge& inc : f.includes) {
      const std::string resolved = resolve_include(prog, f.path, inc.target);
      if (!resolved.empty()) files.add_edge(f.path, resolved, f.path, inc.line);

      const std::string to_path = resolved.empty() ? inc.target : resolved;
      const std::string to_mod = module_of(to_path);
      const int to_tier = module_tier(to_mod);
      if (from_tier >= 0 && to_tier >= 0 && to_tier > from_tier) {
        add(out, f.path, inc.line, kRuleLayer,
            cat("layering back-edge: '", from_mod, "' (tier ",
                std::to_string(from_tier), ") includes \"", inc.target,
                "\" from '", to_mod, "' (tier ", std::to_string(to_tier),
                "); the DESIGN.md layer order only permits includes of the "
                "same or lower tiers"));
      }
    }
  }
  for (const CycleGraph::Cycle& cycle : files.cycles()) {
    add(out, cycle.origin, 0, kRuleLayer,
        cat("include cycle: ", cycle.witness, "; break the cycle with a "
            "forward declaration or by splitting the header"));
  }
}

void rule_fork_keys(const Program& prog, std::vector<Violation>& out) {
  for (const FileIndex& f : prog.files) {
    // Tracked Rng names: declared in this file, its paired header/source,
    // or any directly included walked file (struct members forked through
    // a field reference resolve via the include).
    std::set<std::string> tracked;
    const auto absorb = [&tracked](const FileIndex* fi) {
      if (!fi) return;
      for (const RngDeclaration& d : fi->rng_decls) tracked.insert(d.name);
    };
    absorb(&f);
    const std::string stem = stem_of(f.path);
    for (const char* ext : {".h", ".hpp", ".cpp", ".cc"})
      absorb(prog.find(cat(stem, ext)));
    for (const IncludeEdge& inc : f.includes)
      absorb(prog.find(resolve_include(prog, f.path, inc.target)));

    // Sibling collisions, grouped per (function, receiver): two forks off
    // the same parent in the same function draw from one key namespace.
    std::map<std::pair<std::string, std::string>, std::vector<const ForkSite*>>
        groups;
    for (const ForkSite& site : f.forks) {
      if (!tracked.count(site.receiver)) {
        add(out, f.path, site.line, kRuleFork,
            cat("fork() on '", site.receiver,
                "', which is not a declared Rng stream in this file, its "
                "paired header, or a direct include; fork only from tracked "
                "roots so the stream tree stays auditable"));
      }
      if (!site.dynamic)
        groups[{site.function, site.receiver}].push_back(&site);
    }
    for (const auto& [key, sites] : groups) {
      for (std::size_t a = 0; a < sites.size(); ++a) {
        for (std::size_t b = a + 1; b < sites.size(); ++b) {
          const ForkSite* s1 = sites[a];
          const ForkSite* s2 = sites[b];
          if (s1->line == s2->line) continue;  // one lexical site
          std::string why;
          if (!s1->is_prefix && !s2->is_prefix) {
            if (s1->key == s2->key)
              why = cat("duplicate fork key \"", s1->key, "\"");
          } else if (s1->is_prefix && s2->is_prefix) {
            if (s1->key.starts_with(s2->key) || s2->key.starts_with(s1->key))
              why = cat("overlapping dynamic-suffix fork prefixes \"",
                        s1->key, "…\" and \"", s2->key, "…\"");
          } else {
            const ForkSite* lit = s1->is_prefix ? s2 : s1;
            const ForkSite* pre = s1->is_prefix ? s1 : s2;
            if (lit->key.size() > pre->key.size() &&
                lit->key.starts_with(pre->key))
              why = cat("literal fork key \"", lit->key,
                        "\" lies inside the dynamic-suffix namespace \"",
                        pre->key, "…\"");
          }
          if (why.empty()) continue;
          add(out, f.path, s2->line, kRuleFork,
              cat(why, ": collides with the fork at line ",
                  std::to_string(s1->line), " on the same parent '",
                  key.second,
                  "'; sibling streams must use distinct literal keys"));
        }
      }
    }
  }
}

void rule_lock_order(const Program& prog, std::vector<Violation>& out) {
  // Mutex name resolution: "Class::member" when the owner is unambiguous.
  std::map<std::string, std::set<std::string>> owners;  // member -> classes
  for (const FileIndex& f : prog.files)
    for (const MutexMember& m : f.mutexes)
      owners[m.name].insert(m.owner.empty() ? std::string("<global>")
                                            : m.owner);

  const auto resolve = [&owners](const std::string& cls,
                                 const std::string& name) -> std::string {
    const auto it = owners.find(name);
    if (it == owners.end()) return std::string();
    if (!cls.empty() && it->second.count(cls)) return cat(cls, "::", name);
    if (it->second.size() == 1) {
      const std::string& owner = *it->second.begin();
      return owner == "<global>" ? name : cat(owner, "::", name);
    }
    return std::string();  // ambiguous member name: stay silent
  };

  struct Fn {
    const FileIndex* file = nullptr;
    const FunctionInfo* info = nullptr;
    std::string cls;
    std::set<std::string> closure;  // qualified mutexes (transitive)
  };
  std::vector<Fn> fns;
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (const FileIndex& f : prog.files) {
    for (const FunctionInfo& fn : f.functions) {
      Fn e;
      e.file = &f;
      e.info = &fn;
      const std::size_t sep = fn.qualified.rfind("::");
      e.cls = sep == std::string::npos ? "" : fn.qualified.substr(0, sep);
      for (const std::string& a : fn.annotation_acquires) {
        const std::string q = resolve(e.cls, a);
        if (!q.empty()) e.closure.insert(q);
      }
      for (const LockEvent& ev : fn.events) {
        if (ev.kind != LockEvent::Kind::kAcquire) continue;
        const std::string q = resolve(e.cls, ev.target);
        if (!q.empty()) e.closure.insert(q);
      }
      by_name[fn.name].push_back(fns.size());
      fns.push_back(std::move(e));
    }
  }

  // Propagate acquisitions through calls until a fixpoint. A call only
  // resolves when exactly one indexed function carries that bare name —
  // ambiguous names would invent edges that no execution takes.
  const auto callee_of = [&by_name](const std::string& name) -> std::size_t {
    const auto it = by_name.find(name);
    if (it == by_name.end() || it->second.size() != 1) return SIZE_MAX;
    return it->second.front();
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (Fn& f : fns) {
      for (const LockEvent& ev : f.info->events) {
        if (ev.kind != LockEvent::Kind::kCall) continue;
        const std::size_t callee = callee_of(ev.target);
        if (callee == SIZE_MAX) continue;
        for (const std::string& m : fns[callee].closure)
          changed |= f.closure.insert(m).second;
      }
    }
  }

  CycleGraph graph;
  for (const Fn& f : fns) {
    for (const LockEvent& ev : f.info->events) {
      std::set<std::string> acquired;
      if (ev.kind == LockEvent::Kind::kAcquire) {
        const std::string q = resolve(f.cls, ev.target);
        if (!q.empty()) acquired.insert(q);
      } else {
        if (ev.held.empty()) continue;
        const std::size_t callee = callee_of(ev.target);
        if (callee == SIZE_MAX) continue;
        acquired = fns[callee].closure;
      }
      for (const std::string& h : ev.held) {
        const std::string from = resolve(f.cls, h);
        if (from.empty()) continue;
        for (const std::string& to : acquired) {
          if (from == to && ev.kind == LockEvent::Kind::kCall)
            continue;  // re-entry through a call is EXCLUDES' job, not ours
          graph.add_edge(from, to, f.file->path, ev.line);
        }
      }
    }
  }
  for (const CycleGraph::Cycle& cycle : graph.cycles()) {
    add(out, cycle.file, cycle.line, kRuleLock,
        cat("lock-order cycle: ", cycle.witness,
            "; acquisition order over annotated mutexes must be acyclic"));
  }
}

/// `hits` counts raw violations and `used` the declared inline suppressions
/// that fired, both keyed "file\x01rule".
void rule_stale_config(const Program& prog, const Config& config,
                       const Options& options,
                       const std::map<std::string, std::size_t>& hits,
                       const std::map<std::string, std::size_t>& used,
                       std::vector<Violation>& out) {
  const auto audit = [&](const Config::Entry& e, bool inline_kind) {
    if (e.rule == kRuleStale) return;  // would be self-referential
    bool matched_file = false;
    bool live = false;
    for (const FileIndex& f : prog.files) {
      if (!check::glob_match(e.pattern, f.path)) continue;
      matched_file = true;
      const auto& table = inline_kind ? used : hits;
      const auto it = table.find(cat(f.path, "\x01", e.rule));
      if (it != table.end() && it->second > 0) {
        live = true;
        break;
      }
    }
    if (!matched_file) {
      add(out, options.config_name, e.line, kRuleStale,
          cat("config entry '", inline_kind ? "allow-inline" : "allow", " ",
              e.pattern, " ", e.rule,
              "' matches no analyzed source file; delete it"));
    } else if (!live) {
      add(out, options.config_name, e.line, kRuleStale,
          inline_kind
              ? cat("config entry 'allow-inline ", e.pattern, " ", e.rule,
                    "' backs no live inline suppression; delete it")
              : cat("config entry 'allow ", e.pattern, " ", e.rule,
                    "' matches no remaining raw violation; delete it"));
    }
  };
  for (const Config::Entry& e : config.allow) audit(e, false);
  for (const Config::Entry& e : config.allow_inline) audit(e, true);
}

}  // namespace

std::vector<Violation> analyze_paths(const std::string& root,
                                     const std::vector<std::string>& paths,
                                     const Config& config,
                                     const Options& options,
                                     std::string* error) {
  std::vector<check::SourceFile> files;
  if (!check::list_source_files(root, paths, files, error)) return {};

  // Index phase: one slot per file, claimed by atomic counter; the merge
  // below reads slots in the sorted file order, so output is byte-identical
  // at any thread count.
  Program prog;
  prog.files.resize(files.size());
  std::vector<std::string> slot_errors(files.size());
  std::atomic<std::size_t> next{0};
  const unsigned workers = std::max<unsigned>(
      1, std::min<std::size_t>(options.threads ? options.threads : 1,
                               files.size() ? files.size() : 1));
  const auto worker = [&]() {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= files.size()) return;
      std::string content;
      if (!check::read_file(files[i].full_path, content, &slot_errors[i]))
        continue;
      prog.files[i] = index_file(files[i].rel_path, content);
    }
  };
  if (workers == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  for (const std::string& e : slot_errors) {  // first failing slot wins
    if (!e.empty()) {
      if (error) *error = e;
      return {};
    }
  }
  for (std::size_t i = 0; i < prog.files.size(); ++i)
    prog.by_path[prog.files[i].path] = i;

  // Rule phase (single-threaded over the merged index). Each cross-file hit
  // joins the raw hits of the file it names; a lock-cycle anchor parsed
  // from a path holding ')' names no walked file and keeps its own slot.
  std::vector<Violation> cross;
  rule_layering(prog, cross);
  rule_fork_keys(prog, cross);
  rule_lock_order(prog, cross);
  std::map<std::string, std::vector<Violation>> outside;
  for (Violation& v : cross) {
    const auto it = prog.by_path.find(v.file);
    (it == prog.by_path.end() ? outside[v.file] : prog.files[it->second].raw)
        .push_back(std::move(v));
  }

  // One filter: every file's hits pass once through its allows and inline
  // suppressions, which also tallies the stale-config audit's two tables.
  std::map<std::string, std::size_t> hits, used;  // "file\x01rule" -> n
  std::vector<Violation> kept;
  const auto filter = [&](const std::string& path, std::vector<Violation> raw,
                          check::Suppressions suppressions) {
    for (const Violation& v : raw) ++hits[cat(path, "\x01", v.rule)];
    std::vector<std::string> fired;
    std::vector<Violation> left = check::apply_suppressions(
        path, config, std::move(raw), std::move(suppressions), &fired);
    for (const std::string& rule : fired) ++used[cat(path, "\x01", rule)];
    kept.insert(kept.end(), std::make_move_iterator(left.begin()),
                std::make_move_iterator(left.end()));
  };
  for (FileIndex& f : prog.files)
    filter(f.path, std::move(f.raw), std::move(f.suppressions));
  for (auto& [path, raw] : outside) filter(path, std::move(raw), {});

  if (options.audit_config)
    rule_stale_config(prog, config, options, hits, used, kept);

  std::sort(kept.begin(), kept.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Violation& a, const Violation& b) {
                           return a.file == b.file && a.line == b.line &&
                                  a.rule == b.rule && a.message == b.message;
                         }),
             kept.end());
  return kept;
}

}  // namespace vmcw::analyze
