#include "core/study.h"

#include <stdexcept>

#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"

namespace vmcw {

const char* to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kSemiStatic:
      return "Semi-Static";
    case Algorithm::kStochastic:
      return "Stochastic";
    case Algorithm::kDynamic:
      return "Dynamic";
  }
  return "?";
}

const AlgorithmResult& StudyResult::get(Algorithm a) const {
  for (const auto& r : results)
    if (r.algorithm == a) return r;
  throw std::out_of_range("algorithm not present in study result");
}

double StudyResult::normalized_space_cost(Algorithm a) const {
  const double base = get(Algorithm::kSemiStatic).space_cost;
  return base > 0 ? get(a).space_cost / base : 0.0;
}

double StudyResult::normalized_power_cost(Algorithm a) const {
  const double base = get(Algorithm::kSemiStatic).power_cost;
  return base > 0 ? get(a).power_cost / base : 0.0;
}

namespace {

AlgorithmResult evaluate_static(Algorithm algorithm, const StaticPlan& plan,
                                std::span<const VmWorkload> vms,
                                const StudySettings& settings,
                                const CostModel& costs) {
  AlgorithmResult result;
  result.algorithm = algorithm;
  const Placement schedule[] = {plan.placement};
  result.emulation =
      emulate(vms, schedule, settings, /*power_off_empty_hosts=*/false);
  result.provisioned_hosts = plan.hosts_used;
  result.space_cost = costs.space_hardware_cost(
      settings.target, result.provisioned_hosts,
      static_cast<double>(settings.eval_hours) / 24.0);
  result.power_cost = costs.power_cost(result.emulation.energy_wh);
  return result;
}

}  // namespace

StudyResult run_study(std::string workload_name,
                      std::span<const VmWorkload> vms,
                      const StudySettings& settings,
                      const ConstraintSet& constraints,
                      const CostModel& costs) {
  Stopwatch span("study.wall_seconds");
  StudyResult study;
  study.workload = std::move(workload_name);
  study.settings = settings;

  // The three algorithms plan and replay independently; fan them out as a
  // task group and collect into fixed slots so the result order (and every
  // byte of it) is identical at any thread count. ConstraintSet is
  // physically const-clean (no compression under const), so all tasks
  // share the caller's set directly.
  AlgorithmResult semi_result;
  AlgorithmResult stochastic_result;
  AlgorithmResult dynamic_result;
  TaskGroup group;
  group.run([&] {
    Stopwatch plan_span("study.semi_static_seconds");
    auto semi = plan_semi_static(vms, settings, constraints);
    if (!semi) throw std::runtime_error("semi-static planning failed");
    semi_result =
        evaluate_static(Algorithm::kSemiStatic, *semi, vms, settings, costs);
  });
  group.run([&] {
    Stopwatch plan_span("study.stochastic_seconds");
    auto stochastic = plan_stochastic(vms, settings, constraints);
    if (!stochastic) throw std::runtime_error("stochastic planning failed");
    stochastic_result = evaluate_static(Algorithm::kStochastic, *stochastic,
                                        vms, settings, costs);
  });
  group.run([&] {
    Stopwatch plan_span("study.dynamic_plan_seconds");
    auto dynamic = plan_dynamic(vms, settings, constraints);
    plan_span.stop();
    if (!dynamic) throw std::runtime_error("dynamic planning failed");
    AlgorithmResult dyn;
    dyn.algorithm = Algorithm::kDynamic;
    Stopwatch emulate_span("study.dynamic_emulate_seconds");
    dyn.emulation = emulate(vms, dynamic->per_interval, settings,
                            /*power_off_empty_hosts=*/true);
    emulate_span.stop();
    dyn.provisioned_hosts = dynamic->max_active_hosts;
    dyn.space_cost = costs.space_hardware_cost(
        settings.target, dyn.provisioned_hosts,
        static_cast<double>(settings.eval_hours) / 24.0);
    dyn.power_cost = costs.power_cost(dyn.emulation.energy_wh);
    dyn.migrations_per_interval = std::move(dynamic->migrations);
    dyn.total_migrations = dynamic->total_migrations;
    dynamic_result = std::move(dyn);
  });
  group.wait();

  study.results.push_back(std::move(semi_result));
  study.results.push_back(std::move(stochastic_result));
  study.results.push_back(std::move(dynamic_result));
  return study;
}

StudyResult run_study(const Datacenter& dc, const StudySettings& settings,
                      const ConstraintSet& constraints,
                      const CostModel& costs) {
  const auto vms = to_vm_workloads(dc);
  return run_study(dc.industry, vms, settings, constraints, costs);
}

SensitivityResult sensitivity_sweep(
    const Datacenter& dc, const StudySettings& base_settings,
    std::span<const double> utilization_bounds) {
  Stopwatch span("sensitivity.wall_seconds");
  SensitivityResult result;
  result.workload = dc.industry;
  const auto vms = to_vm_workloads(dc);

  // The reference plans and every utilization-bound point are independent
  // cells of one grid: run them all on the pool, each writing its own slot.
  std::optional<StaticPlan> semi;
  std::optional<StaticPlan> stochastic;
  std::vector<std::size_t> dynamic_hosts(utilization_bounds.size(), 0);
  TaskGroup group;
  group.run([&] { semi = plan_semi_static(vms, base_settings); });
  group.run([&] { stochastic = plan_stochastic(vms, base_settings); });
  for (std::size_t i = 0; i < utilization_bounds.size(); ++i) {
    group.run([&, i] {
      StudySettings settings = base_settings;
      settings.dynamic_utilization_bound = utilization_bounds[i];
      auto dynamic = plan_dynamic(vms, settings);
      if (!dynamic)
        throw std::runtime_error(
            "dynamic planning failed in sensitivity sweep");
      dynamic_hosts[i] = dynamic->max_active_hosts;
    });
  }
  group.wait();

  if (!semi || !stochastic)
    throw std::runtime_error("static planning failed in sensitivity sweep");
  result.semi_static_hosts = semi->hosts_used;
  result.stochastic_hosts = stochastic->hosts_used;
  result.dynamic_points.reserve(utilization_bounds.size());
  for (std::size_t i = 0; i < utilization_bounds.size(); ++i)
    result.dynamic_points.push_back(
        SensitivityPoint{utilization_bounds[i], dynamic_hosts[i]});
  return result;
}

}  // namespace vmcw
