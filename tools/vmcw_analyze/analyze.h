// vmcw_analyze: the determinism contract checker.
//
// It builds a lightweight whole-program index over all of src/ — per file:
// include edges, declared Rng streams and fork call sites with literal
// keys, annotated mutexes and lock acquisition scopes, raw write sites,
// inline suppressions — from one token vector per file. On those tokens it
// runs the lexical rules of tools/vmcw_lint (banned identifiers, wall-clock
// reads, unordered iteration, thread identity, mutable globals, raw Rng
// construction; see lint.h), and over the index four rule families that
// only make sense on the whole program:
//
//   fork-key-collision   Sibling streams forked from the same parent must
//                        use distinct literal keys; a literal key that can
//                        also be produced by a sibling's "prefix" + dynamic
//                        tail collides too. fork() on a receiver that is
//                        not a tracked Rng (declared in the file or its
//                        paired header) is an untracked root.
//   lock-order-cycle     The acquisition graph — built from MutexLock /
//                        lock_guard scopes, VMCW_REQUIRES / VMCW_ACQUIRE
//                        annotations, and one level of cross-TU call
//                        closure — must be acyclic. Diagnostics carry the
//                        ordered witness path (A -> B -> A with the
//                        file:line of every edge).
//   layering             DESIGN.md's layer order (util -> runtime ->
//                        core/trace/hardware/... -> topology/chaos ->
//                        engine/scale/sweep -> service/report -> tools) is
//                        compiled into the include graph: a lower-tier file
//                        including a higher-tier module is a back-edge, and
//                        file-level include cycles are always fatal.
//   durable-write        Durable bytes flow only through the two
//                        sanctioned primitives: write_file_atomic (whole
//                        files; snapshots ask it for durability) and
//                        runtime/record_log (the sweep journal, the frame
//                        WAL and the decision log); a raw std::ofstream /
//                        fopen / ::write / ::open anywhere else is a
//                        violation.
//
// Plus one meta rule that keeps the allowlist honest:
//
//   stale-config         Every `allow` entry must still match a file with a
//                        live raw violation of its rule, and every
//                        `allow-inline` entry must still match a file with
//                        a live, used inline suppression. Entries that
//                        allow nothing are themselves violations, so the
//                        reviewed budget can only shrink when code does.
//
// Every hit of a file, lexical and cross-file, passes once through
// check::apply_suppressions: the whole-file `allow` entries of
// vmcw_lint.conf and the file's `// vmcw-lint: allow(rule)` comments.
// Inline suppressions apply to the per-site rules (the lexical rules,
// durable-write, fork-key-collision); the cross-file rules (layering,
// lock-order-cycle) accept only whole-file `allow` entries — a cycle has no
// single line to annotate.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "check.h"

namespace vmcw::analyze {

using check::Config;
using check::Violation;

/// Names of the whole-program rules (check::known_rule_names() lists these
/// after the lexical rules).
const std::vector<std::string>& rule_names();

struct Options {
  /// Worker threads for the file walk/index phase. Output is byte-identical
  /// at any value (results merge in sorted file order).
  unsigned threads = 1;
  /// File name used when reporting stale-config violations.
  std::string config_name = "vmcw_lint.conf";
  /// Run the stale-config audit (tests of single rule families disable it).
  bool audit_config = true;
};

// ---------------------------------------------------------------------------
// The whole-program index (exposed for tests).
// ---------------------------------------------------------------------------

struct IncludeEdge {
  std::string target;  ///< include string, e.g. "core/vm.h"
  std::size_t line = 0;
};

struct RngDeclaration {
  std::string name;
  std::size_t line = 0;
};

struct ForkSite {
  std::string function;  ///< enclosing function (qualified), "" at file scope
  std::string receiver;  ///< identifier fork() was called on
  std::string key;       ///< literal key or literal prefix ("" = dynamic)
  bool is_prefix = false;  ///< key is a literal prefix with a dynamic tail
  bool dynamic = false;    ///< key expression carries no leading literal
  std::size_t line = 0;
};

struct MutexMember {
  std::string owner;  ///< class name, or "" for namespace scope
  std::string name;
  std::size_t line = 0;
};

/// One lock acquired, or one call made, inside a function — with the set of
/// mutexes (qualified "Class::member") held at that point.
struct LockEvent {
  enum class Kind { kAcquire, kCall };
  Kind kind = Kind::kAcquire;
  std::string target;  ///< mutex (kAcquire) or bare callee name (kCall)
  std::vector<std::string> held;
  std::size_t line = 0;
};

struct FunctionInfo {
  std::string name;       ///< bare name
  std::string qualified;  ///< "Class::name" when the class is known
  std::vector<std::string> annotation_acquires;  ///< VMCW_ACQUIRE(...) args
  std::vector<LockEvent> events;
  std::size_t line = 0;
};

struct FileIndex {
  std::string path;  ///< root-relative
  std::vector<IncludeEdge> includes;
  std::vector<RngDeclaration> rng_decls;
  std::vector<ForkSite> forks;
  std::vector<MutexMember> mutexes;
  std::vector<FunctionInfo> functions;
  /// Lexical-rule and durable-write hits, unfiltered; the cross-file rules
  /// add theirs at merge time, before the one suppression filter.
  std::vector<Violation> raw;
  check::Suppressions suppressions;  ///< inline suppression comments
};

/// Tier of a top-level src/ module in the DESIGN.md layer order, or -1 when
/// the module is not part of the layered tree (unknown directories are
/// exempt from the tier check but still participate in cycle detection).
int module_tier(std::string_view module);

/// Index one file (tokenize once, run the lexical rules, extract). Exposed
/// for unit tests.
FileIndex index_file(std::string_view path, std::string_view content);

/// Analyze every *.h / *.cpp under `paths` (files or directories), resolved
/// relative to `root`; reported paths are root-relative and output order is
/// deterministic (sorted by file, line, rule, message) at any thread count.
std::vector<Violation> analyze_paths(const std::string& root,
                                     const std::vector<std::string>& paths,
                                     const Config& config,
                                     const Options& options,
                                     std::string* error);

}  // namespace vmcw::analyze
