#include "engine/engine.h"

#include <stdexcept>
#include <string>

#include "runtime/telemetry.h"
#include "topology/spread.h"

namespace vmcw {

const char* to_string(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::kStatic:
      return "Static";
    case Strategy::kSemiStatic:
      return "Semi-Static";
    case Strategy::kStochastic:
      return "Stochastic";
    case Strategy::kDynamic:
      return "Dynamic";
    case Strategy::kHybrid:
      return "Hybrid";
  }
  return "?";
}

ConsolidationEngine::ConsolidationEngine(Config config)
    : config_(std::move(config)) {}

void ConsolidationEngine::observe(const Datacenter& estate) {
  Stopwatch span("engine.observe_seconds");
  truth_ = estate;
  // collect_datacenter fans the per-server agents across the thread pool.
  const auto warehouse =
      collect_datacenter(estate, config_.agent, config_.monitoring_seed);
  view_ = reconstruct_datacenter(estate, warehouse);
  vms_ = to_vm_workloads(*view_);
}

const Datacenter& ConsolidationEngine::planner_view() const {
  if (!view_) throw std::logic_error("observe() an estate first");
  return *view_;
}

PipelineFidelity ConsolidationEngine::monitoring_fidelity() const {
  if (!truth_ || !view_) throw std::logic_error("observe() an estate first");
  return pipeline_fidelity(*truth_, *view_);
}

FailureDomainMap ConsolidationEngine::failure_domain_map() const {
  if (!view_) throw std::logic_error("observe() an estate first");
  const TopologySpec spec{config_.settings.domains.hosts_per_rack,
                          config_.settings.domains.racks_per_power_domain};
  return FailureDomainMap::generate(
      HostPool::uniform(config_.settings.target), vms_.size(), spec,
      config_.topology_seed);
}

ConstraintSet ConsolidationEngine::compiled_constraints() const {
  // Domain-aware planning: compile each application's spread rules once;
  // every strategy honors the resulting ConstraintSet. Both layers of the
  // topology are compiled — rack spread bounds the blast radius of a
  // ToR/rack outage, power-domain spread bounds a feed failure (which a
  // rack rule alone cannot: k racks may share one power domain).
  ConstraintSet constraints;
  if (config_.settings.domains.spread) {
    const auto groups = app_replica_groups(vms_);
    const FailureDomainMap topology = failure_domain_map();
    spread_across_domains(constraints, groups, topology, DomainKind::kRack,
                          config_.settings.domains.spread_k);
    spread_across_domains(constraints, groups, topology,
                          DomainKind::kPowerDomain,
                          config_.settings.domains.spread_k);
  }
  return constraints;
}

std::optional<ConsolidationEngine::Recommendation>
ConsolidationEngine::recommend(Strategy strategy) const {
  if (!view_) throw std::logic_error("observe() an estate first");
  Stopwatch span(std::string("engine.recommend_seconds.") +
                 to_string(strategy));
  Recommendation rec;
  rec.strategy = strategy;

  const ConstraintSet constraints = compiled_constraints();

  switch (strategy) {
    case Strategy::kStatic:
    case Strategy::kSemiStatic:
    case Strategy::kStochastic: {
      std::optional<StaticPlan> plan;
      if (strategy == Strategy::kStatic)
        plan = plan_static(vms_, config_.settings, constraints);
      else if (strategy == Strategy::kSemiStatic)
        plan = plan_semi_static(vms_, config_.settings, constraints);
      else
        plan = plan_stochastic(vms_, config_.settings, constraints);
      if (!plan) return std::nullopt;
      rec.schedule = {plan->placement};
      rec.provisioned_hosts = plan->hosts_used;
      break;
    }
    case Strategy::kDynamic: {
      auto plan = plan_dynamic(vms_, config_.settings, constraints);
      if (!plan) return std::nullopt;
      rec.schedule = std::move(plan->per_interval);
      rec.provisioned_hosts = plan->max_active_hosts;
      rec.total_migrations = plan->total_migrations;
      break;
    }
    case Strategy::kHybrid: {
      auto plan = plan_hybrid(vms_, config_.settings, config_.hybrid_fraction,
                              constraints);
      if (!plan) return std::nullopt;
      rec.provisioned_hosts = plan->provisioned_hosts();
      rec.total_migrations = plan->total_migrations;
      rec.schedule = std::move(plan->per_interval);
      break;
    }
  }

  // Every interval's placement must obey the rules it was planned under;
  // a violation is a planner bug, never a plan to score.
  for (const Placement& placement : rec.schedule)
    if (!constraints.satisfied_by(placement))
      throw std::logic_error(std::string("recommend: ") + to_string(strategy) +
                             " plan violates its constraints");

  // Execution feasibility for the strategies that live-migrate.
  if (strategy != Strategy::kDynamic && strategy != Strategy::kHybrid)
    return rec;
  rec.execution = execution_feasibility(
      rec.schedule, vms_, config_.settings.eval_begin(),
      config_.settings.interval_hours, MigrationConfig{});
  return rec;
}

EmulationReport ConsolidationEngine::evaluate(
    const Recommendation& recommendation) const {
  if (!truth_) throw std::logic_error("observe() an estate first");
  Stopwatch span("engine.evaluate_seconds");
  const auto truth_vms = to_vm_workloads(*truth_);
  const bool power_off = recommendation.strategy == Strategy::kDynamic ||
                         recommendation.strategy == Strategy::kHybrid;
  return emulate(truth_vms, recommendation.schedule, config_.settings,
                 power_off);
}

RobustnessReport ConsolidationEngine::evaluate_under_faults(
    const Recommendation& recommendation, const FaultPlan& plan,
    const ChaosOptions& options) const {
  if (!truth_) throw std::logic_error("observe() an estate first");
  Stopwatch span("engine.evaluate_faults_seconds");
  const auto truth_vms = to_vm_workloads(*truth_);
  const bool power_off = recommendation.strategy == Strategy::kDynamic ||
                         recommendation.strategy == Strategy::kHybrid;
  return replay_under_faults(truth_vms, recommendation.schedule,
                             config_.settings, power_off, plan, options);
}

}  // namespace vmcw
