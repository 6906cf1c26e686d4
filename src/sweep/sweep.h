// SweepDriver: fan a grid of independent experiment cells across the
// thread pool.
//
// The paper's evaluation is a grid — figures x workload classes x
// strategies — where every cell is one self-contained (estate, settings,
// strategy, seed) run. The driver executes cells in any order on any
// number of threads and still produces bit-identical results, because each
// cell derives every RNG stream it needs (estate generation, monitoring
// noise) from its *own* seed via util/rng.h keyed forks and writes into
// its own result slot. Nothing mutable is shared between cells.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "chaos/replay.h"
#include "core/emulator.h"
#include "core/settings.h"
#include "engine/engine.h"
#include "runtime/record_log.h"
#include "runtime/thread_pool.h"
#include "trace/generator.h"

namespace vmcw {

/// One independent experiment: generate the estate from `spec` seeded by
/// the cell, observe it through the monitoring pipeline, plan with
/// `strategy`, and replay the ground truth against the plan.
struct SweepCell {
  WorkloadSpec spec;
  StudySettings settings;
  Strategy strategy = Strategy::kSemiStatic;
  std::uint64_t seed = 0;
  /// Fault injection (src/chaos). When faults.any(), the cell replays the
  /// plan under a FaultPlan derived from fork("chaos") of the cell seed and
  /// fills SweepCellResult::robustness; `report` is then the faulted
  /// replay's emulation. The default spec injects nothing, and the cell is
  /// bit-identical to a pre-chaos run. Rack / power-domain rates draw
  /// correlated outages against the failure-domain map the engine derives
  /// from fork("topology") of the cell seed — the same map
  /// settings.domains.spread compiles placement rules against.
  FaultSpec faults;
  ChaosOptions chaos;
};

/// The engine every SweepCell plans on: it has observed the estate of
/// fork("estate") of `seed`, and its monitoring and topology seeds are
/// fork("monitoring") and fork("topology") of `seed`.
ConsolidationEngine observe_cell(const WorkloadSpec& spec,
                                 const StudySettings& settings,
                                 std::uint64_t seed);

/// How one cell ended. Anything but kOk leaves `planned == false` and the
/// reports default-constructed; kFailed carries the exception text in
/// `error`. No outcome ever aborts or perturbs sibling cells. A cell runs
/// once: it is a pure function of its SweepCell, so a retry would only
/// recompute the same outcome.
enum class CellStatus : std::uint8_t {
  kOk = 0,
  kPlannerFailed = 1,  ///< planner returned no placement (deterministic)
  kFailed = 2,         ///< the cell threw
};

const char* to_string(CellStatus status) noexcept;

struct SweepCellResult {
  std::size_t index = 0;  ///< position in the submitted grid
  std::string workload;
  Strategy strategy = Strategy::kSemiStatic;
  std::uint64_t seed = 0;
  bool planned = false;  ///< false when the planner failed on this cell
  CellStatus status = CellStatus::kOk;
  std::string error;  ///< exception text for kFailed
  std::size_t provisioned_hosts = 0;
  std::size_t total_migrations = 0;
  EmulationReport report;  ///< default-constructed when !planned
  /// Fault-injected replay outcome; only meaningful when the cell's
  /// FaultSpec injects something (robustness.emulation == report then).
  RobustnessReport robustness;
  /// Wall time of this cell — telemetry only, excluded from the
  /// determinism contract (a journal replays the original cell's time).
  double wall_seconds = 0;
};

/// Durability knobs for SweepDriver::run. The defaults journal nothing.
struct SweepOptions {
  /// Crash-safe cell journal path; empty disables journaling. Completed
  /// cells are appended atomically as they finish, keyed by a content hash
  /// of the whole grid, so a killed sweep can resume.
  std::string journal_path;
  /// Replay a matching journal's completed cells instead of recomputing
  /// them. A journal written for a different grid (any cell edited, added,
  /// or reordered) is detected by its hash and discarded. Without resume,
  /// an existing journal is truncated and the sweep starts clean.
  bool resume = false;
  /// Test instrumentation: invoked before each computed (not replayed)
  /// cell. May throw to simulate a failing cell. Not part of the
  /// determinism contract.
  std::function<void(const SweepCell& cell, std::size_t index)> cell_hook;
};

class SweepDriver {
 public:
  /// pool == nullptr uses ThreadPool::global(). `journal_hooks` (nullptr:
  /// real I/O) carry the journal's writes and syncs; the chaos layer
  /// injects write errors and failed syncs through them.
  explicit SweepDriver(ThreadPool* pool = nullptr,
                       WalIoHooks* journal_hooks = nullptr)
      : pool_(pool), journal_hooks_(journal_hooks) {}

  /// Cartesian grid in row-major order: specs x settings x strategies x
  /// seeds.
  static std::vector<SweepCell> grid(std::span<const WorkloadSpec> specs,
                                     std::span<const StudySettings> settings,
                                     std::span<const Strategy> strategies,
                                     std::span<const std::uint64_t> seeds);

  /// Run every cell across the pool. Results are indexed like `cells` and
  /// bit-identical for any thread count. A cell whose planner fails is
  /// reported with planned == false rather than aborting the sweep.
  std::vector<SweepCellResult> run(std::span<const SweepCell> cells) const;

  /// Durable variant: journaled and resumable per `options`. A
  /// resumed sweep replays journaled cells and computes only the rest; the
  /// combined result vector is byte-identical to an uninterrupted run at
  /// any thread count (wall_seconds excepted, as always).
  std::vector<SweepCellResult> run(std::span<const SweepCell> cells,
                                   const SweepOptions& options) const;

 private:
  ThreadPool* pool_;
  WalIoHooks* journal_hooks_;
};

}  // namespace vmcw
