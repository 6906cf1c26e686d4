#include "sweep/sweep.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "sweep/journal.h"
#include "runtime/telemetry.h"
#include "util/rng.h"

namespace vmcw {

const char* to_string(CellStatus status) noexcept {
  switch (status) {
    case CellStatus::kOk:
      return "ok";
    case CellStatus::kPlannerFailed:
      return "planner_failed";
    case CellStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

std::vector<SweepCell> SweepDriver::grid(
    std::span<const WorkloadSpec> specs,
    std::span<const StudySettings> settings,
    std::span<const Strategy> strategies,
    std::span<const std::uint64_t> seeds) {
  std::vector<SweepCell> cells;
  cells.reserve(specs.size() * settings.size() * strategies.size() *
                seeds.size());
  for (const auto& spec : specs)
    for (const auto& s : settings)
      for (const auto strategy : strategies)
        for (const auto seed : seeds) {
          SweepCell cell;
          cell.spec = spec;
          cell.settings = s;
          cell.strategy = strategy;
          cell.seed = seed;
          cells.push_back(std::move(cell));
        }
  return cells;
}

ConsolidationEngine observe_cell(const WorkloadSpec& spec,
                                 const StudySettings& settings,
                                 std::uint64_t seed) {
  // Every stream a cell consumes is a keyed fork of the cell seed:
  // independent of sibling cells and of scheduling order.
  const Rng root(seed);  // vmcw-lint: allow(rng-construction) root of one sweep cell
  ConsolidationEngine::Config config;
  config.settings = settings;
  config.monitoring_seed = root.fork("monitoring")();
  config.topology_seed = root.fork("topology")();
  ConsolidationEngine engine(std::move(config));
  engine.observe(generate_datacenter(spec, root.fork("estate")()));
  return engine;
}

namespace {

/// The pure compute core of one cell: everything it consumes derives from
/// the cell itself, so the result is a function of `cell` alone.
void compute_cell(const SweepCell& cell, SweepCellResult& out) {
  const ConsolidationEngine engine =
      observe_cell(cell.spec, cell.settings, cell.seed);
  out.workload = engine.planner_view().industry;

  const auto recommendation = engine.recommend(cell.strategy);
  if (!recommendation) {
    out.status = CellStatus::kPlannerFailed;
    return;
  }
  out.planned = true;
  out.provisioned_hosts = recommendation->provisioned_hosts;
  out.total_migrations = recommendation->total_migrations;
  if (cell.faults.any()) {
    // Fault schedule from the cell's own keyed stream: independent
    // of sibling cells and of scheduling order, like every other
    // stream the cell consumes.
    std::size_t host_bound = 0;
    for (const auto& p : recommendation->schedule)
      host_bound = std::max(host_bound, p.host_index_bound());
    // Correlated faults need the same failure-domain map planning
    // saw; with zero domain rates the plan is byte-identical with or
    // without it, so only build the map when a rate asks for it.
    const bool correlated = cell.faults.rack_outages_per_month > 0.0 ||
                            cell.faults.power_domain_outages_per_month > 0.0;
    FailureDomainMap topology;
    if (correlated) topology = engine.failure_domain_map();
    const Rng root(cell.seed);  // vmcw-lint: allow(rng-construction) root of one sweep cell
    const FaultPlan plan = FaultPlan::generate(
        cell.faults, host_bound, cell.settings, root.fork("chaos")(),
        correlated ? &topology : nullptr);
    out.robustness =
        engine.evaluate_under_faults(*recommendation, plan, cell.chaos);
    out.report = out.robustness.emulation;
  } else {
    out.report = engine.evaluate(*recommendation);
  }
}

/// Run one cell and journal its outcome. Never throws; every outcome lands
/// in `out` so sibling cells are untouched.
void run_cell(const SweepCell& cell, std::size_t index,
              const SweepOptions& options, SweepJournal* journal,
              SweepCellResult& out) {
  Stopwatch cell_span("sweep.cell_seconds");
  out = SweepCellResult{};
  out.index = index;
  out.strategy = cell.strategy;
  out.seed = cell.seed;
  try {
    if (options.cell_hook) options.cell_hook(cell, index);
    compute_cell(cell, out);
  } catch (const std::exception& e) {
    out.status = CellStatus::kFailed;
    out.error = e.what();
  } catch (...) {
    out.status = CellStatus::kFailed;
    out.error = "unknown exception";
  }
  if (out.status == CellStatus::kFailed) {
    // Whatever the cell computed before it unwound is partial; the
    // contract says a non-ok cell reports planned == false and
    // default-constructed reports (workload naming is kept for logs).
    out.planned = false;
    out.provisioned_hosts = 0;
    out.total_migrations = 0;
    out.report = EmulationReport{};
    out.robustness = RobustnessReport{};
  }
  MetricsRegistry::global().add_counter(out.status == CellStatus::kOk
                                            ? "sweep.cells_done"
                                            : "sweep.cells_failed");

  out.wall_seconds = cell_span.stop();
  if (journal != nullptr && journal->append_result(out))
    MetricsRegistry::global().add_counter("sweep.journal.cells_appended");
}

}  // namespace

std::vector<SweepCellResult> SweepDriver::run(
    std::span<const SweepCell> cells) const {
  return run(cells, SweepOptions{});
}

std::vector<SweepCellResult> SweepDriver::run(
    std::span<const SweepCell> cells, const SweepOptions& options) const {
  std::vector<SweepCellResult> results(cells.size());
  Stopwatch sweep_span("sweep.wall_seconds");
  MetricsRegistry::global().add_counter("sweep.cells", cells.size());

  // Open the journal (if any) and replay what a previous run finished.
  SweepJournal journal;
  journal.set_io_hooks(journal_hooks_);
  std::vector<bool> replayed(cells.size(), false);
  if (!options.journal_path.empty()) {
    const std::uint64_t hash = sweep_grid_hash(cells);
    SweepJournal::Recovery recovery =
        journal.open(options.journal_path, hash, cells.size(), options.resume);
    if (recovery.stale)
      MetricsRegistry::global().add_counter("sweep.journal.stale_discarded");
    if (recovery.torn_tail)
      MetricsRegistry::global().add_counter("sweep.journal.torn_tail_bytes",
                                            recovery.bytes_discarded);
    for (SweepCellResult& replay : recovery.results) {
      const std::size_t i = replay.index;
      results[i] = std::move(replay);
      replayed[i] = true;
    }
    MetricsRegistry::global().add_counter("sweep.journal.cells_replayed",
                                          recovery.results.size());
  }

  SweepJournal* journal_ptr = journal.is_open() ? &journal : nullptr;
  parallel_for(
      0, cells.size(),
      [&](std::size_t i) {
        if (replayed[i]) return;
        run_cell(cells[i], i, options, journal_ptr, results[i]);
      },
      pool_, /*grain=*/1);
  return results;
}

}  // namespace vmcw
