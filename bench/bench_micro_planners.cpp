// Micro-benchmarks (google-benchmark) for the planning/emulation kernels:
// trace generation, FFD packing, PCP packing, dynamic planning, replay, and
// the online controller's per-tick re-plan.
//
// These quantify the cost of consolidation planning itself — the tooling
// the paper's team ran inside engagements — and keep regressions visible.

#include <benchmark/benchmark.h>

#include "core/admission.h"
#include "core/capacity_index.h"
#include "core/dynamic.h"
#include "core/emulator.h"
#include "core/hybrid.h"
#include "core/migration_scheduler.h"
#include "core/pcp.h"
#include "core/planners.h"
#include "trace/generator.h"
#include "trace/presets.h"
#include "util/rng.h"

namespace vmcw {
namespace {

StudySettings bench_settings() {
  StudySettings s;
  s.history_hours = 384;
  s.eval_hours = 336;
  return s;
}

const std::vector<VmWorkload>& fleet(int servers) {
  static std::map<int, std::vector<VmWorkload>> cache;
  auto it = cache.find(servers);
  if (it == cache.end()) {
    const auto spec = scaled_down(banking_spec(), servers, kHoursPerMonth);
    it = cache.emplace(servers,
                       to_vm_workloads(generate_datacenter(spec, kStudySeed)))
             .first;
  }
  return it->second;
}

void BM_GenerateDatacenter(benchmark::State& state) {
  const auto spec = scaled_down(banking_spec(),
                                static_cast<int>(state.range(0)),
                                kHoursPerMonth);
  for (auto _ : state) {
    auto dc = generate_datacenter(spec, kStudySeed);
    benchmark::DoNotOptimize(dc.servers.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateDatacenter)->Arg(100)->Arg(400)->Arg(816);

void BM_SemiStaticPlan(benchmark::State& state) {
  const auto& vms = fleet(static_cast<int>(state.range(0)));
  const auto settings = bench_settings();
  for (auto _ : state) {
    auto plan = plan_semi_static(vms, settings);
    benchmark::DoNotOptimize(plan->hosts_used);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SemiStaticPlan)->Arg(100)->Arg(400)->Arg(816);

void BM_StochasticPlan(benchmark::State& state) {
  const auto& vms = fleet(static_cast<int>(state.range(0)));
  const auto settings = bench_settings();
  for (auto _ : state) {
    auto plan = plan_stochastic(vms, settings);
    benchmark::DoNotOptimize(plan->hosts_used);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StochasticPlan)->Arg(100)->Arg(400)->Arg(816);

void BM_DynamicPlan(benchmark::State& state) {
  const auto& vms = fleet(static_cast<int>(state.range(0)));
  const auto settings = bench_settings();
  for (auto _ : state) {
    auto plan = plan_dynamic(vms, settings);
    benchmark::DoNotOptimize(plan->total_migrations);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DynamicPlan)
    ->Arg(100)
    ->Arg(400)
    ->Arg(816)
    ->Arg(1390)
    ->Unit(benchmark::kMillisecond);

void BM_Emulate(benchmark::State& state) {
  const auto& vms = fleet(static_cast<int>(state.range(0)));
  const auto settings = bench_settings();
  const auto plan = plan_dynamic(vms, settings);
  for (auto _ : state) {
    auto report = emulate(vms, plan->per_interval, settings, true);
    benchmark::DoNotOptimize(report.energy_wh);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Emulate)
    ->Arg(100)
    ->Arg(400)
    ->Arg(816)
    ->Arg(1390)
    ->Unit(benchmark::kMillisecond);

// The static twin: one placement for the whole window, idle hosts powered.
void BM_EmulateStatic(benchmark::State& state) {
  const auto& vms = fleet(static_cast<int>(state.range(0)));
  const auto settings = bench_settings();
  const auto plan = plan_semi_static(vms, settings);
  const std::vector<Placement> schedule{plan->placement};
  for (auto _ : state) {
    auto report = emulate(vms, schedule, settings, false);
    benchmark::DoNotOptimize(report.energy_wh);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EmulateStatic)
    ->Arg(100)
    ->Arg(400)
    ->Arg(816)
    ->Arg(1390)
    ->Unit(benchmark::kMillisecond);

void BM_HybridPlan(benchmark::State& state) {
  const auto& vms = fleet(static_cast<int>(state.range(0)));
  const auto settings = bench_settings();
  for (auto _ : state) {
    auto plan = plan_hybrid(vms, settings, 0.25);
    benchmark::DoNotOptimize(plan->provisioned_hosts());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HybridPlan)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_MigrationScheduling(benchmark::State& state) {
  const auto& vms = fleet(static_cast<int>(state.range(0)));
  const auto settings = bench_settings();
  const auto plan = plan_dynamic(vms, settings);
  for (auto _ : state) {
    const auto feasibility = execution_feasibility(
        plan->per_interval, vms, settings.eval_begin(),
        settings.interval_hours, MigrationConfig{});
    benchmark::DoNotOptimize(feasibility.worst_makespan_s);
  }
}
BENCHMARK(BM_MigrationScheduling)
    ->Arg(100)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_MakeStochasticItems(benchmark::State& state) {
  const auto& vms = fleet(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto items = make_stochastic_items(vms, 0, 384);
    benchmark::DoNotOptimize(items.size());
  }
}
BENCHMARK(BM_MakeStochasticItems)->Arg(100)->Arg(400);

// One controller tick's re-plan on a controller-shaped fleet: a spread-off
// ConstraintSet(n), hosts filled to 70% of the 0.8 bound, three overloaded
// hosts and three nearly empty ones. The few moves cost little; the per-VM
// passes that decide movability and list each host's residents dominate.
void BM_RepairAndDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const StudySettings settings;
  const HostPool pool = HostPool::uniform(settings.target);
  const double bound = 0.8;
  const double drain_below = 0.25;
  const ConstraintSet constraints(n);
  const ResourceVector capacity = pool.capacity_of(0, bound);
  Rng rng(kStudySeed);
  std::vector<ResourceVector> sizes(n);
  Placement placement(n);
  std::vector<ResourceVector> load(1);
  for (std::size_t vm = 0; vm < n; ++vm) {
    sizes[vm] = capacity * rng.uniform(0.02, 0.08);
    const std::size_t host = load.size() - 1;
    const double fill = host >= 1 && host <= 3 ? 1.1 : 0.7;
    // The last three VMs open one host each: the drain candidates.
    if (vm + 3 >= n || !(load[host] + sizes[vm]).fits_within(capacity * fill))
      load.emplace_back();
    placement.assign(vm, static_cast<std::int32_t>(load.size() - 1));
    load.back() += sizes[vm];
  }

  RepairWorkspace workspace;
  for (auto _ : state) {
    state.PauseTiming();
    Placement tick_placement = placement;
    std::vector<ResourceVector> tick_load = load;
    CapacityIndex index;
    for (std::size_t h = 0; h < tick_load.size(); ++h) {
      index.push_host(pool.capacity_of(h, bound));
      index.set_load(h, tick_load[h]);
    }
    state.ResumeTiming();
    const RepairOutcome& outcome =
        repair_and_drain(workspace, sizes, tick_placement, tick_load, pool,
                         bound, drain_below, constraints, {}, &index);
    benchmark::DoNotOptimize(outcome.drain_moves.size());
  }
  state.counters["repair_moves"] =
      static_cast<double>(workspace.outcome.repair_moves.size());
  state.counters["drained_hosts"] =
      static_cast<double>(workspace.outcome.drained_hosts.size());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RepairAndDrain)
    ->Arg(2000)
    ->Arg(25000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vmcw

BENCHMARK_MAIN();
