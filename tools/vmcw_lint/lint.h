// The lexical rules of the determinism contract checker (vmcw_analyze).
//
// The dynamic half of the contract (1/2/8-thread pin tests, TSan) catches a
// violation only when a test happens to exercise it; this tool makes the
// contract's *sources* of nondeterminism grep-proofly illegal across src/.
// They deliberately work on tokens, not an AST: no libclang dependency,
// milliseconds per tree, and the rules are lexical by nature (a banned
// identifier is banned wherever it appears). vmcw_analyze runs them over
// the token vector it builds for each file, next to its whole-program
// rules (fork-key collisions, lock-order cycles, layering, durable-write
// discipline); every hit then passes through the one suppression filter in
// tools/check_common.
//
// Rules (each violation names its rule; see DESIGN.md §5d for rationale):
//   nondeterministic-rng  std::random_device, rand/srand/*rand48, and the
//                         <random> engines — all randomness flows through
//                         util/rng.h's keyed xoshiro streams.
//   wall-clock            system/steady/high_resolution_clock, time(),
//                         gettimeofday & friends in result-affecting code;
//                         telemetry is allowlisted.
//   unordered-iteration   range-for over a container declared as
//                         unordered_{map,set,multimap,multiset} in the same
//                         file — hash order must never reach results.
//   thread-identity       this_thread::get_id, hardware_concurrency, or a
//                         "VMCW_THREADS" read outside the thread pool —
//                         results must not branch on who or how many.
//   mutable-global        non-const namespace-scope / static / thread_local
//                         variables: shared mutable state breaks replay.
//   rng-construction      direct Rng construction outside util/rng —
//                         streams must derive from a forked parent; the
//                         handful of root-of-scenario seeds are suppressed
//                         inline and declared in the config.
//
// Suppressions: a line (or the standalone comment line above it) may carry
//   // vmcw-lint: allow(rule) reason...
// Every inline suppression must be backed by an `allow-inline` config entry
// for (file, rule) — an undeclared or unused suppression is itself a
// violation, so the checked-in config is the complete allowlist.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "check.h"

namespace vmcw::lint {

using check::Violation;

/// Run the lexical rules on one file's tokens, raw: no allowlist filtering,
/// no suppression handling. `path` is the root-relative path reported.
std::vector<Violation> lint_file_raw(std::string_view path,
                                     const std::vector<check::Token>& toks);

}  // namespace vmcw::lint
