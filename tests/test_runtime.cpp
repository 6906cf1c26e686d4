// Tests for the parallel experiment runtime: thread pool semantics
// (drain-on-shutdown, exception propagation, nesting) and the determinism
// contract — identical results at 1, 2 and 8 threads for the sweep driver,
// the study driver and the monitoring pipeline.

#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/study.h"
#include "engine/engine.h"
#include "monitoring/pipeline.h"
#include "sweep/sweep.h"
#include "runtime/telemetry.h"
#include "test_helpers.h"
#include "trace/presets.h"
#include "util/rng.h"

namespace vmcw {
namespace {

using testing::small_settings;

// ---------------------------------------------------------------- pool ----

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(4);
  std::vector<int> out(1000, -1);
  parallel_for(0, out.size(),
               [&](std::size_t i) { out[i] = static_cast<int>(i) * 3; },
               &pool);
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(5, 5, [&](std::size_t) { touched = true; }, &pool);
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(0, 100,
                            [](std::size_t i) {
                              if (i == 37)
                                throw std::runtime_error("index 37 failed");
                            },
                            &pool),
               std::runtime_error);
}

TEST(ThreadPool, TaskGroupRunsEveryTask) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  TaskGroup group(&pool);
  for (int i = 1; i <= 64; ++i)
    group.run([&sum, i] { sum += i; });
  group.wait();
  EXPECT_EQ(sum.load(), 64 * 65 / 2);
}

TEST(ThreadPool, TaskGroupPropagatesFirstException) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> completed{0};
  group.run([] { throw std::logic_error("task failed"); });
  for (int i = 0; i < 8; ++i)
    group.run([&completed] { ++completed; });
  EXPECT_THROW(group.wait(), std::logic_error);
  EXPECT_EQ(completed.load(), 8);  // siblings still ran to completion
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i)
      pool.submit([&ran] { ++ran; });
    // Destructor must finish every queued task before joining.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  parallel_for(0, 8,
               [&](std::size_t) {
                 parallel_for(0, 8, [&](std::size_t) { ++leaves; }, &pool, 1);
               },
               &pool, 1);
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPool, SingleThreadPoolStillCompletesGroups) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) group.run([&ran] { ++ran; });
  group.wait();
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, VmcwThreadsEnvControlsDefaultConcurrency) {
  ::setenv("VMCW_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_concurrency(), 3u);
  ::setenv("VMCW_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
  ::unsetenv("VMCW_THREADS");
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
}

// ----------------------------------------------------------- telemetry ----

TEST(Telemetry, CountersAccumulate) {
  MetricsRegistry registry;
  registry.add_counter("cells");
  registry.add_counter("cells", 4);
  EXPECT_EQ(registry.counter("cells"), 5u);
  EXPECT_EQ(registry.counter("unknown"), 0u);
}

TEST(Telemetry, HistogramTracksMoments) {
  MetricsRegistry registry;
  registry.observe("span", 1.0);
  registry.observe("span", 3.0);
  const auto h = registry.histogram("span");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.sum, 4.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 3.0);
}

TEST(Telemetry, JsonContainsBothSections) {
  MetricsRegistry registry;
  registry.add_counter("emulate.runs", 2);
  registry.observe("emulate.wall_seconds", 0.25);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"emulate.runs\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"emulate.wall_seconds\""), std::string::npos);
}

TEST(Telemetry, StopwatchRecordsASpan) {
  MetricsRegistry registry;
  {
    Stopwatch watch("phase.seconds", &registry);
  }
  const auto h = registry.histogram("phase.seconds");
  EXPECT_EQ(h.count, 1u);
  EXPECT_GE(h.sum, 0.0);
}

// --------------------------------------------------------- determinism ----

void expect_reports_identical(const EmulationReport& a,
                              const EmulationReport& b) {
  EXPECT_EQ(a.eval_hours, b.eval_hours);
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_EQ(a.provisioned_hosts, b.provisioned_hosts);
  EXPECT_EQ(a.active_hosts_per_interval, b.active_hosts_per_interval);
  EXPECT_EQ(a.host_avg_cpu_util, b.host_avg_cpu_util);
  EXPECT_EQ(a.host_peak_cpu_util, b.host_peak_cpu_util);
  EXPECT_EQ(a.cpu_contention_samples, b.cpu_contention_samples);
  EXPECT_EQ(a.mem_contention_samples, b.mem_contention_samples);
  EXPECT_EQ(a.hours_with_contention, b.hours_with_contention);
  EXPECT_EQ(a.vm_contention_hours, b.vm_contention_hours);
  EXPECT_EQ(a.total_vm_contention_hours, b.total_vm_contention_hours);
  EXPECT_EQ(a.energy_wh, b.energy_wh);  // bit-identical, not approximate
}

std::vector<SweepCell> small_grid() {
  const WorkloadSpec specs[] = {
      scaled_down(banking_spec(), 16, 168),
      scaled_down(airlines_spec(), 16, 168),
  };
  const StudySettings settings[] = {small_settings()};
  const Strategy strategies[] = {Strategy::kSemiStatic, Strategy::kDynamic};
  const std::uint64_t seeds[] = {7, 99};
  return SweepDriver::grid(specs, settings, strategies, seeds);
}

TEST(SweepDriver, GridIsCartesianRowMajor) {
  const auto cells = small_grid();
  ASSERT_EQ(cells.size(), 2u * 1u * 2u * 2u);
  EXPECT_EQ(cells[0].spec.industry, "Banking");
  EXPECT_EQ(cells[0].strategy, Strategy::kSemiStatic);
  EXPECT_EQ(cells[0].seed, 7u);
  EXPECT_EQ(cells[1].seed, 99u);
  EXPECT_EQ(cells.back().spec.industry, "Airlines");
  EXPECT_EQ(cells.back().strategy, Strategy::kDynamic);
}

TEST(SweepDriver, BitIdenticalAcrossThreadCounts) {
  const auto cells = small_grid();

  std::vector<std::vector<SweepCellResult>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(pool);  // nested phases use the same pool
    runs.push_back(SweepDriver(&pool).run(cells));
  }

  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      const auto& a = runs[0][i];
      const auto& b = runs[r][i];
      EXPECT_EQ(a.index, b.index);
      EXPECT_EQ(a.workload, b.workload);
      EXPECT_EQ(a.strategy, b.strategy);
      EXPECT_EQ(a.planned, b.planned);
      EXPECT_EQ(a.provisioned_hosts, b.provisioned_hosts);
      EXPECT_EQ(a.total_migrations, b.total_migrations);
      expect_reports_identical(a.report, b.report);
    }
  }
  // Sanity: the grid actually planned something.
  EXPECT_TRUE(runs[0][0].planned);
  EXPECT_GT(runs[0][0].provisioned_hosts, 0u);
}

TEST(Study, RunStudyBitIdenticalAcrossThreadCounts) {
  const auto dc =
      generate_datacenter(scaled_down(banking_spec(), 60, 168), 42);

  std::vector<StudyResult> results;
  for (const std::size_t threads : {1u, 8u}) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(pool);
    results.push_back(run_study(dc, small_settings()));
  }

  ASSERT_EQ(results[0].results.size(), results[1].results.size());
  for (std::size_t i = 0; i < results[0].results.size(); ++i) {
    const auto& a = results[0].results[i];
    const auto& b = results[1].results[i];
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.provisioned_hosts, b.provisioned_hosts);
    EXPECT_EQ(a.space_cost, b.space_cost);
    EXPECT_EQ(a.power_cost, b.power_cost);
    EXPECT_EQ(a.migrations_per_interval, b.migrations_per_interval);
    EXPECT_EQ(a.total_migrations, b.total_migrations);
    expect_reports_identical(a.emulation, b.emulation);
  }
}

TEST(Study, SensitivitySweepBitIdenticalAcrossThreadCounts) {
  const auto dc =
      generate_datacenter(scaled_down(banking_spec(), 40, 168), 42);
  const std::vector<double> bounds{0.6, 0.8, 1.0};

  std::vector<SensitivityResult> results;
  for (const std::size_t threads : {1u, 8u}) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(pool);
    results.push_back(sensitivity_sweep(dc, small_settings(), bounds));
  }

  EXPECT_EQ(results[0].semi_static_hosts, results[1].semi_static_hosts);
  EXPECT_EQ(results[0].stochastic_hosts, results[1].stochastic_hosts);
  ASSERT_EQ(results[0].dynamic_points.size(), results[1].dynamic_points.size());
  for (std::size_t i = 0; i < results[0].dynamic_points.size(); ++i) {
    EXPECT_EQ(results[0].dynamic_points[i].utilization_bound,
              results[1].dynamic_points[i].utilization_bound);
    EXPECT_EQ(results[0].dynamic_points[i].dynamic_hosts,
              results[1].dynamic_points[i].dynamic_hosts);
  }
}

// Figs 13-16 read only each cell's provisioned_hosts from a grid of
// semi-static, stochastic and one dynamic cell per bound. Planning every
// bound on one engine observed with the cell seed's estate / monitoring /
// topology forks must give the same host counts.
TEST(Study, SensitivitySweepMatchesPerBoundSweepCells) {
  const std::vector<double> bounds{0.6, 0.8, 1.0};
  for (const WorkloadSpec& preset : all_workload_specs()) {
    SCOPED_TRACE(preset.industry);
    const WorkloadSpec spec = scaled_down(preset, 30, 168);

    std::vector<SweepCell> cells;
    SweepCell cell;
    cell.spec = spec;
    cell.settings = small_settings();
    cell.seed = kStudySeed;
    cell.strategy = Strategy::kSemiStatic;
    cells.push_back(cell);
    cell.strategy = Strategy::kStochastic;
    cells.push_back(cell);
    cell.strategy = Strategy::kDynamic;
    for (const double bound : bounds) {
      cell.settings.dynamic_utilization_bound = bound;
      cells.push_back(cell);
    }
    const auto results = SweepDriver().run(cells);
    for (const auto& r : results) ASSERT_TRUE(r.planned) << r.index;

    const Rng root(kStudySeed);
    ConsolidationEngine::Config config;
    config.settings = small_settings();
    config.monitoring_seed = root.fork("monitoring")();
    config.topology_seed = root.fork("topology")();
    ConsolidationEngine engine(std::move(config));
    engine.observe(generate_datacenter(spec, root.fork("estate")()));
    const SensitivityResult curve =
        sensitivity_sweep(engine.planner_view(), small_settings(), bounds);

    EXPECT_EQ(curve.semi_static_hosts, results[0].provisioned_hosts);
    EXPECT_EQ(curve.stochastic_hosts, results[1].provisioned_hosts);
    ASSERT_EQ(curve.dynamic_points.size(), bounds.size());
    for (std::size_t i = 0; i < bounds.size(); ++i)
      EXPECT_EQ(curve.dynamic_points[i].dynamic_hosts,
                results[2 + i].provisioned_hosts)
          << "U=" << bounds[i];
  }
}

TEST(Pipeline, CollectDatacenterBitIdenticalAcrossThreadCounts) {
  const auto dc =
      generate_datacenter(scaled_down(beverage_spec(), 24, 168), 11);

  std::vector<Datacenter> views;
  for (const std::size_t threads : {1u, 8u}) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(pool);
    const auto warehouse = collect_datacenter(dc, AgentConfig{}, 1);
    views.push_back(reconstruct_datacenter(dc, warehouse));
  }

  ASSERT_EQ(views[0].servers.size(), views[1].servers.size());
  for (std::size_t s = 0; s < views[0].servers.size(); ++s) {
    const auto& a = views[0].servers[s];
    const auto& b = views[1].servers[s];
    ASSERT_EQ(a.cpu_util.size(), b.cpu_util.size());
    for (std::size_t t = 0; t < a.cpu_util.size(); ++t)
      ASSERT_EQ(a.cpu_util[t], b.cpu_util[t]);
    ASSERT_EQ(a.mem_mb.size(), b.mem_mb.size());
    for (std::size_t t = 0; t < a.mem_mb.size(); ++t)
      ASSERT_EQ(a.mem_mb[t], b.mem_mb[t]);
  }
}

}  // namespace
}  // namespace vmcw
