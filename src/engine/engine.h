// The consolidation flow of Section 2.1 as one engine:
//
//   Monitoring -> Prediction -> Size Estimation -> Placement -> Execution
//
// The engine observes an estate through per-minute monitoring agents into
// the hourly warehouse (the only data real planning ever sees), then
// produces a consolidation recommendation with any of the implemented
// strategies, including the migration-execution feasibility of the result.
// What the paper's tool suite did across 30+ engagements, in one object.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "chaos/replay.h"
#include "core/hybrid.h"
#include "core/migration_scheduler.h"
#include "core/study.h"
#include "monitoring/pipeline.h"
#include "topology/failure_domains.h"

namespace vmcw {

/// Strategy selector for recommendations. Extends the paper's three
/// compared algorithms with pure Static and the hybrid extension.
enum class Strategy {
  kStatic,
  kSemiStatic,
  kStochastic,
  kDynamic,
  kHybrid,
};

const char* to_string(Strategy strategy) noexcept;

class ConsolidationEngine {
 public:
  struct Config {
    AgentConfig agent;        ///< monitoring fidelity knobs
    StudySettings settings;   ///< Table 3 parameters
    double hybrid_fraction = 0.25;
    std::uint64_t monitoring_seed = 1;
    /// Seed the failure-domain map (rack / PDU assignment) derives from
    /// when settings.domains.spread is on or a fault plan wants correlated
    /// outages; keyed separately from monitoring so neither perturbs the
    /// other.
    std::uint64_t topology_seed = 1;
  };

  ConsolidationEngine() : ConsolidationEngine(Config{}) {}
  explicit ConsolidationEngine(Config config);

  /// Step 1 (Monitoring): run agents over the estate and fill the
  /// warehouse. The ground truth is kept only for inventory (specs/labels)
  /// and for evaluate().
  void observe(const Datacenter& estate);

  /// The planner's view: the estate as reconstructed from warehouse
  /// aggregates. Requires observe().
  const Datacenter& planner_view() const;

  /// Monitoring fidelity vs the observed ground truth.
  PipelineFidelity monitoring_fidelity() const;

  struct Recommendation {
    Strategy strategy = Strategy::kSemiStatic;
    std::vector<Placement> schedule;  ///< 1 entry for static variants
    std::size_t provisioned_hosts = 0;
    std::size_t total_migrations = 0;
    /// Migration-execution feasibility (dynamic/hybrid only; empty else).
    std::optional<ExecutionFeasibility> execution;
  };

  /// Steps 2-5: size, place and (for dynamic variants) check execution of
  /// the requested strategy, all on the warehouse view. Requires
  /// observe(). Returns std::nullopt when planning fails. When
  /// settings.domains.spread is on, application spread rules (at most
  /// ceil(n/k) replicas per rack) are compiled against failure_domain_map()
  /// and honored by every strategy.
  std::optional<Recommendation> recommend(Strategy strategy) const;

  /// The failure-domain map planning and fault generation share: derived
  /// from the target pool shape, settings.domains, and topology_seed.
  /// Requires observe() (the estate size bounds the materialized table).
  FailureDomainMap failure_domain_map() const;

  /// Replay the *ground truth* against a recommendation's schedule — the
  /// emulator step the paper uses to compare algorithms.
  EmulationReport evaluate(const Recommendation& recommendation) const;

  /// Robustness counterpart of evaluate(): replay the ground truth under
  /// an injected fault schedule (src/chaos). With a no-fault plan the
  /// embedded EmulationReport is bit-identical to evaluate()'s.
  RobustnessReport evaluate_under_faults(
      const Recommendation& recommendation, const FaultPlan& plan,
      const ChaosOptions& options = {}) const;

  const Config& config() const noexcept { return config_; }

 private:
  /// The spread rules every strategy honors (settings.domains).
  ConstraintSet compiled_constraints() const;

  Config config_;
  std::optional<Datacenter> truth_;
  std::optional<Datacenter> view_;
  std::vector<VmWorkload> vms_;  ///< from the warehouse view
};

}  // namespace vmcw
