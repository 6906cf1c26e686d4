// Unit + property tests for the dynamic consolidation planner.

#include "core/dynamic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/host_pool.h"
#include "core/hybrid.h"
#include "core/planners.h"
#include "core/predictor.h"
#include "test_helpers.h"
#include "topology/failure_domains.h"
#include "topology/spread.h"
#include "util/rng.h"

namespace vmcw {
namespace {

using testing::constant_vm;
using testing::fnv1a;
using testing::kFnvBasis;
using testing::preset_fleet;
using testing::schedule_hash;
using testing::small_fleet;
using testing::small_settings;

TEST(DynamicPlanner, OnePlacementPerInterval) {
  const auto vms = small_fleet();
  const auto settings = small_settings();
  const auto plan = plan_dynamic(vms, settings);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->per_interval.size(), settings.intervals());
  EXPECT_EQ(plan->migrations.size(), settings.intervals());
  EXPECT_EQ(plan->migrations[0], 0u);  // nothing to migrate from
}

TEST(DynamicPlanner, EveryVmPlacedEveryInterval) {
  const auto vms = small_fleet();
  const auto plan = plan_dynamic(vms, small_settings());
  ASSERT_TRUE(plan.has_value());
  for (const auto& placement : plan->per_interval)
    EXPECT_EQ(placement.placed_count(), vms.size());
}

TEST(DynamicPlanner, RespectsUtilizationBoundOnPredictedSizes) {
  const auto vms = small_fleet();
  auto settings = small_settings();
  settings.dynamic_utilization_bound = 0.8;
  const auto plan = plan_dynamic(vms, settings);
  ASSERT_TRUE(plan.has_value());
  VmDemandPredictor predictor{PeakPredictor(settings.predictor)};
  const auto capacity = settings.capacity(0.8);

  for (std::size_t k = 0; k < plan->per_interval.size(); ++k) {
    const std::size_t hour = settings.eval_begin() + k * settings.interval_hours;
    std::vector<ResourceVector> loads(
        plan->per_interval[k].host_index_bound());
    for (std::size_t vm = 0; vm < vms.size(); ++vm) {
      predictor.predict(vms[vm], hour, settings.interval_hours, 1);
      loads[static_cast<std::size_t>(plan->per_interval[k].host_of(vm))] +=
          predictor.at(0);
    }
    for (const auto& load : loads) EXPECT_TRUE(load.fits_within(capacity));
  }
}

TEST(DynamicPlanner, MigrationCountsMatchPlacementDiffs) {
  const auto vms = small_fleet();
  const auto plan = plan_dynamic(vms, small_settings());
  ASSERT_TRUE(plan.has_value());
  std::size_t total = 0;
  for (std::size_t k = 1; k < plan->per_interval.size(); ++k) {
    const auto moved = Placement::migrations_between(plan->per_interval[k - 1],
                                                     plan->per_interval[k]);
    EXPECT_EQ(plan->migrations[k], moved);
    total += moved;
  }
  EXPECT_EQ(plan->total_migrations, total);
}

TEST(DynamicPlanner, MaxActiveHostsConsistent) {
  const auto vms = small_fleet();
  const auto plan = plan_dynamic(vms, small_settings());
  ASSERT_TRUE(plan.has_value());
  std::size_t max_active = 0;
  for (const auto& p : plan->per_interval)
    max_active = std::max(max_active, p.active_host_count());
  EXPECT_EQ(plan->max_active_hosts, max_active);
}

TEST(DynamicPlanner, ConstantDemandNeedsNoMigration) {
  std::vector<VmWorkload> vms;
  for (int i = 0; i < 20; ++i)
    vms.push_back(constant_vm(std::string("v") + std::to_string(i), 1000.0, 4096.0, 168));
  const auto plan = plan_dynamic(vms, small_settings());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->total_migrations, 0u);
}

TEST(DynamicPlanner, PinnedVmNeverMoves) {
  auto vms = small_fleet(40);
  ConstraintSet cs(vms.size());
  cs.pin(0, 0);
  cs.pin(1, 1);
  const auto plan = plan_dynamic(vms, small_settings(), cs);
  ASSERT_TRUE(plan.has_value());
  for (const auto& p : plan->per_interval) {
    EXPECT_EQ(p.host_of(0), 0);
    EXPECT_EQ(p.host_of(1), 1);
  }
}

TEST(DynamicPlanner, AffinityPreservedEveryInterval) {
  auto vms = small_fleet(40);
  ConstraintSet cs(vms.size());
  cs.add_affinity(2, 3);
  cs.add_affinity(3, 4);
  const auto plan = plan_dynamic(vms, small_settings(), cs);
  ASSERT_TRUE(plan.has_value());
  for (const auto& p : plan->per_interval) {
    EXPECT_EQ(p.host_of(2), p.host_of(3));
    EXPECT_EQ(p.host_of(3), p.host_of(4));
  }
}

TEST(DynamicPlanner, AntiAffinityPreservedEveryInterval) {
  auto vms = small_fleet(40);
  ConstraintSet cs(vms.size());
  cs.add_anti_affinity(5, 6);
  const auto plan = plan_dynamic(vms, small_settings(), cs);
  ASSERT_TRUE(plan.has_value());
  for (const auto& p : plan->per_interval)
    EXPECT_NE(p.host_of(5), p.host_of(6));
}

TEST(DynamicPlanner, InfeasibleConstraintsRejected) {
  auto vms = small_fleet(10);
  ConstraintSet cs(vms.size());
  cs.add_affinity(0, 1);
  cs.add_anti_affinity(0, 1);
  EXPECT_FALSE(plan_dynamic(vms, small_settings(), cs).has_value());
}

TEST(DynamicPlanner, Deterministic) {
  const auto vms = small_fleet();
  const auto a = plan_dynamic(vms, small_settings());
  const auto b = plan_dynamic(vms, small_settings());
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->total_migrations, b->total_migrations);
  for (std::size_t k = 0; k < a->per_interval.size(); ++k)
    EXPECT_EQ(a->per_interval[k], b->per_interval[k]);
}

// Property (Fig 13-16's mechanism): provisioning requirement grows as the
// utilization bound shrinks.
class UtilizationBoundSweep : public ::testing::TestWithParam<double> {};

TEST_P(UtilizationBoundSweep, TighterBoundNeverNeedsFewerHosts) {
  const auto vms = small_fleet(80);
  auto settings = small_settings();
  settings.dynamic_utilization_bound = GetParam();
  const auto tight = plan_dynamic(vms, settings);
  settings.dynamic_utilization_bound = 1.0;
  const auto loose = plan_dynamic(vms, settings);
  ASSERT_TRUE(tight && loose);
  // Heuristic packing allows 1 host of slack, but the trend must hold.
  EXPECT_GE(tight->max_active_hosts + 1, loose->max_active_hosts);
}

INSTANTIATE_TEST_SUITE_P(Bounds, UtilizationBoundSweep,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9));

std::uint64_t counts_hash(const std::vector<std::size_t>& counts) {
  std::uint64_t h = kFnvBasis;
  for (std::size_t c : counts) h = fnv1a(h, c, 8);
  return h;
}

/// Every VM's host, in VM order.
std::vector<std::int32_t> host_vector(const Placement& p) {
  std::vector<std::int32_t> out;
  for (std::size_t v = 0; v < p.vm_count(); ++v) out.push_back(p.host_of(v));
  return out;
}

struct PlanPin {
  std::uint64_t placements;  ///< schedule_hash over every interval
  std::uint64_t migrations;  ///< counts_hash of the migrations vector
  std::size_t total_migrations;
  std::size_t max_active_hosts;
};

void expect_pin(const DynamicPlan& plan, const PlanPin& pin,
                const char* label) {
  EXPECT_EQ(schedule_hash(plan.per_interval), pin.placements) << label;
  EXPECT_EQ(counts_hash(plan.migrations), pin.migrations) << label;
  EXPECT_EQ(plan.total_migrations, pin.total_migrations) << label;
  EXPECT_EQ(plan.max_active_hosts, pin.max_active_hosts) << label;
}

// Golden pins of whole month-long schedules (168 intervals) on the four
// Table-2 presets scaled to 120 servers, plus a constrained estate whose
// drain trials are rejected by allowed_on part-way. Any change to host
// order, tie-breaking or how a failed trial is undone shows up here.
TEST(DynamicPlanner, GoldenPlacementPins) {
  const StudySettings settings;
  const struct {
    WorkloadSpec spec;
    PlanPin pin;
  } presets[] = {
      {banking_spec(),
       {8769682941088689060ULL, 2699897455189604721ULL, 2662, 6}},
      {airlines_spec(),
       {1471444317895829724ULL, 12416527587091827890ULL, 139, 19}},
      {natural_resources_spec(),
       {7384401554651442173ULL, 235630472376723515ULL, 908, 14}},
      {beverage_spec(),
       {13941094858484059973ULL, 4790565719571899475ULL, 1242, 6}},
  };
  for (const auto& preset : presets) {
    const auto vms = preset_fleet(preset.spec);
    const auto plan = plan_dynamic(vms, settings);
    ASSERT_TRUE(plan.has_value()) << preset.spec.name;
    expect_pin(*plan, preset.pin, preset.spec.name.c_str());
  }

  // Constrained estate: affinity groups, a pinned VM, anti-affinity pairs
  // and rack spread of every application over small racks.
  const auto vms = preset_fleet(natural_resources_spec());
  ConstraintSet cs(vms.size());
  cs.add_affinity(2, 3);
  cs.add_affinity(3, 4);
  cs.add_affinity(10, 11);
  cs.pin(0, 0);
  cs.add_anti_affinity(5, 6);
  cs.add_anti_affinity(7, 8);
  cs.add_anti_affinity(20, 21);
  const auto map = FailureDomainMap::generate(
      HostPool::uniform(settings.target), vms.size(),
      TopologySpec{.hosts_per_rack = 4, .racks_per_power_domain = 2},
      kStudySeed);
  spread_across_domains(cs, app_replica_groups(vms), map, DomainKind::kRack,
                        3);
  ASSERT_FALSE(cs.spread_rules().empty());
  const auto plan = plan_dynamic(vms, settings, cs);
  ASSERT_TRUE(plan.has_value());
  expect_pin(*plan,
             {15204549670672274374ULL, 14566112838636181314ULL, 1111, 15},
             "constrained");

  // Hybrid: the dynamic block plans through plan_dynamic.
  const auto hybrid = plan_hybrid(vms, settings, 0.25);
  ASSERT_TRUE(hybrid.has_value());
  EXPECT_EQ(schedule_hash(hybrid->per_interval), 11032286024967580646ULL);
  EXPECT_EQ(hybrid->total_migrations, 9u);
  EXPECT_EQ(hybrid->stochastic_hosts, 8u);
  EXPECT_EQ(hybrid->max_dynamic_hosts, 4u);
}

// Hosts with identical loads. FFD puts X and Y (anti-affine, equal size)
// alone on hosts 0 and 1 and W on host 2; P, T1 and T2 (equal size) are
// pinned to hosts 3, 5 and 6. W, X and Y may not share a host with each
// other; W also not with P, X and Y not with T1 or T2. Consolidation walks
// ascending load:
//   - W (lightest) goes to the most-loaded host that takes it; of the equal
//     hosts 3, 5 and 6 it may not join P, and first-fit picks host 5 over
//     host 6 (lowest index).
//   - Hosts 0 and 1 tie; the highest index is tried first, so Y moves to
//     host 3, the only host it may join. X then fits nowhere and stays.
// Either tie broken the other way ends with X on host 3 and W on host 6.
TEST(DynamicPlanner, EqualLoadHostsResolveByIndex) {
  const auto settings = small_settings();
  const ResourceVector cap =
      settings.capacity(settings.dynamic_utilization_bound);
  const double margin = PeakPredictor::Options{}.cpu_safety_margin;
  const std::size_t hours = settings.eval_end();
  const auto vm = [&](const char* id, double share) {
    return constant_vm(id, share * cap.cpu_rpe2 / margin, 1024.0, hours);
  };
  const std::vector<VmWorkload> vms = {vm("X", 0.3),  vm("Y", 0.3),
                                       vm("W", 0.1),  vm("P", 0.5),
                                       vm("T1", 0.5), vm("T2", 0.5)};
  enum : std::size_t { X, Y, W, P, T1, T2 };
  ConstraintSet cs(vms.size());
  cs.add_anti_affinity(X, Y);
  cs.add_anti_affinity(W, X);
  cs.add_anti_affinity(W, Y);
  cs.add_anti_affinity(W, P);
  for (std::size_t pinned : {T1, T2}) {
    cs.add_anti_affinity(X, pinned);
    cs.add_anti_affinity(Y, pinned);
  }
  cs.pin(P, 3);
  cs.pin(T1, 5);
  cs.pin(T2, 6);
  const auto plan = plan_dynamic(vms, settings, cs);
  ASSERT_TRUE(plan.has_value());

  EXPECT_EQ(host_vector(plan->per_interval[0]),
            (std::vector<std::int32_t>{0, 1, 2, 3, 5, 6}));
  EXPECT_EQ(host_vector(plan->per_interval[1]),
            (std::vector<std::int32_t>{0, 3, 5, 3, 5, 6}));
  EXPECT_EQ(host_vector(plan->per_interval.back()),
            (std::vector<std::int32_t>{0, 3, 5, 3, 5, 6}));
  EXPECT_EQ(plan->migrations[1], 2u);
  EXPECT_EQ(plan->total_migrations, 2u);
}

// A free VM drains onto a pinned host it fills to the capacity limit. FFD
// puts the pinned VM P on host 1 first and the free VM A on empty host 0;
// the first adaptation then empties host 0 (the lighter one) onto host 1,
// the only other host. Two boundaries, both on the CPU dimension:
//   - exact: the predicted sizes are 0.75 and 0.25 of capacity and sum to
//     it bit for bit;
//   - epsilon: 0.6 of capacity plus a size chosen so that the sum rounds to
//     exactly fits_within's limit, capacity * (1 + 1e-9) + 1e-9, while the
//     next double above the sum does not fit. Here the limit minus A's
//     size rounds below P's load, so a bound on the host key without slack
//     for rounding would skip host 1.
// A's memory share (0.5) exceeds its CPU share, so the CPU bound is the
// tighter one on host 1.
TEST(DynamicPlanner, ExactFitHostIsStillFound) {
  const auto settings = small_settings();
  const ResourceVector cap =
      settings.capacity(settings.dynamic_utilization_bound);
  ASSERT_EQ(cap.cpu_rpe2, 16384.0);
  const PeakPredictor::Options margins;
  const std::size_t hours = settings.eval_end();
  const struct {
    const char* label;
    double free_cpu;    ///< A's CPU demand; predicted size is x 1.10
    double pinned_cpu;  ///< P's CPU demand
    bool exact;         ///< the sizes sum to capacity bit for bit
  } cases[] = {
      {"exact", 3723.6363636363635, 11170.90909090909, true},
      {"epsilon", 5957.8181967136388, 8936.7272727272721, false},
  };
  for (const auto& c : cases) {
    const std::vector<VmWorkload> vms = {
        constant_vm("A", c.free_cpu,
                    0.5 * cap.memory_mb / margins.mem_safety_margin, hours),
        constant_vm("P", c.pinned_cpu,
                    0.1 * cap.memory_mb / margins.mem_safety_margin, hours)};
    const double free_size = c.free_cpu * margins.cpu_safety_margin;
    const double pinned_size = c.pinned_cpu * margins.cpu_safety_margin;
    const double sum = pinned_size + free_size;
    if (c.exact) {
      ASSERT_EQ(sum, cap.cpu_rpe2) << c.label;
    } else {
      ASSERT_GT(sum, cap.cpu_rpe2) << c.label;
      ASSERT_TRUE(ResourceVector({sum, 0.0}).fits_within(cap)) << c.label;
      ASSERT_FALSE(ResourceVector({std::nextafter(sum, 2 * sum), 0.0})
                       .fits_within(cap))
          << c.label;
    }
    ConstraintSet cs(vms.size());
    cs.pin(1, 1);
    const auto plan = plan_dynamic(vms, settings, cs);
    ASSERT_TRUE(plan.has_value()) << c.label;
    EXPECT_EQ(host_vector(plan->per_interval[0]),
              (std::vector<std::int32_t>{0, 1}))
        << c.label;
    for (std::size_t k = 1; k < plan->per_interval.size(); ++k)
      EXPECT_EQ(host_vector(plan->per_interval[k]),
                (std::vector<std::int32_t>{1, 1}))
          << c.label << " interval " << k;
    EXPECT_EQ(plan->total_migrations, 1u) << c.label;
    EXPECT_EQ(plan->max_active_hosts, 2u) << c.label;
  }
}

// A drain trial whose later groups fit only on the host its first group
// went to. FFD puts the free VMs on empty host 0; P is pinned to host 1 and
// Q to host 2, which leaves room for no free VM, so every group of host 0
// can only join P:
//   - A and B: A takes host 1 first, and B still fits beside P and A, so
//     host 0 empties onto host 1.
//   - A, B and D: D would fit beside P alone, but not beside P, A and B, so
//     the trial fails and nothing moves.
TEST(DynamicPlanner, DrainTrialReusesItsTarget) {
  const auto settings = small_settings();
  const ResourceVector cap =
      settings.capacity(settings.dynamic_utilization_bound);
  const double margin = PeakPredictor::Options{}.cpu_safety_margin;
  const std::size_t hours = settings.eval_end();
  const auto vm = [&](const char* id, double share) {
    return constant_vm(id, share * cap.cpu_rpe2 / margin, 1024.0, hours);
  };
  const struct {
    const char* label;
    std::vector<VmWorkload> vms;  ///< free VMs first, then P and Q
    std::vector<std::int32_t> drained;
    std::size_t migrations;
  } cases[] = {
      {"reused", {vm("A", 0.3), vm("B", 0.2), vm("P", 0.4), vm("Q", 0.9)},
       {1, 1, 1, 2}, 2},
      {"overfilled",
       {vm("A", 0.3), vm("B", 0.2), vm("D", 0.15), vm("P", 0.4),
        vm("Q", 0.9)},
       {0, 0, 0, 1, 2}, 0},
  };
  for (const auto& c : cases) {
    const std::size_t n = c.vms.size();
    ConstraintSet cs(n);
    cs.pin(n - 2, 1);
    cs.pin(n - 1, 2);
    const auto plan = plan_dynamic(c.vms, settings, cs);
    ASSERT_TRUE(plan.has_value()) << c.label;
    std::vector<std::int32_t> packed(n, 0);
    packed[n - 2] = 1;
    packed[n - 1] = 2;
    EXPECT_EQ(host_vector(plan->per_interval[0]), packed) << c.label;
    for (std::size_t k = 1; k < plan->per_interval.size(); ++k)
      EXPECT_EQ(host_vector(plan->per_interval[k]), c.drained)
          << c.label << " interval " << k;
    EXPECT_EQ(plan->total_migrations, c.migrations) << c.label;
  }
}

// A drain trial target whose new load ties an untouched host's load. FFD
// puts the free VMs A and B on empty host 0. P is pinned alone to one host
// and Q1 and Q2 together to another; P and Q1 have the same size, and so do
// A and Q2. A may not join Q2, so it goes to P's host, whose load then
// equals the other host's bit for bit. B fits on both, and the lower index
// takes it:
//   - P on host 1, Q1 and Q2 on host 2: B joins A on host 1;
//   - P on host 2, Q1 and Q2 on host 1: B goes to host 1, apart from A.
TEST(DynamicPlanner, DrainTrialTieGoesToLowerIndex) {
  const auto settings = small_settings();
  const ResourceVector cap =
      settings.capacity(settings.dynamic_utilization_bound);
  const double margin = PeakPredictor::Options{}.cpu_safety_margin;
  const std::size_t hours = settings.eval_end();
  const auto vm = [&](const char* id, double share) {
    return constant_vm(id, share * cap.cpu_rpe2 / margin, 1024.0, hours);
  };
  const std::vector<VmWorkload> vms = {vm("A", 0.3), vm("B", 0.2),
                                       vm("P", 0.4), vm("Q1", 0.4),
                                       vm("Q2", 0.3)};
  enum : std::size_t { A, B, P, Q1, Q2 };
  const struct {
    const char* label;
    std::int32_t p_host;
    std::int32_t q_host;
    std::vector<std::int32_t> drained;
  } cases[] = {
      {"target lower", 1, 2, {1, 1, 1, 2, 2}},
      {"untouched lower", 2, 1, {2, 1, 2, 1, 1}},
  };
  for (const auto& c : cases) {
    ConstraintSet cs(vms.size());
    cs.add_anti_affinity(A, Q2);
    cs.pin(P, c.p_host);
    cs.pin(Q1, c.q_host);
    cs.pin(Q2, c.q_host);
    const auto plan = plan_dynamic(vms, settings, cs);
    ASSERT_TRUE(plan.has_value()) << c.label;
    EXPECT_EQ(host_vector(plan->per_interval[0]),
              (std::vector<std::int32_t>{0, 0, c.p_host, c.q_host, c.q_host}))
        << c.label;
    for (std::size_t k = 1; k < plan->per_interval.size(); ++k)
      EXPECT_EQ(host_vector(plan->per_interval[k]), c.drained)
          << c.label << " interval " << k;
    EXPECT_EQ(plan->total_migrations, 2u) << c.label;
  }
}

// One VM whose CPU demand is `base` except `high` over hours [from, to).
VmWorkload step_vm(const char* id, double base, double high, std::size_t from,
                   std::size_t to, std::size_t hours) {
  auto vm = constant_vm(id, base, 1024.0, hours);
  std::vector<double> cpu(hours, base);
  for (std::size_t h = from; h < to; ++h) cpu[h] = high;
  vm.cpu_rpe2 = TimeSeries(std::move(cpu));
  return vm;
}

// Host slots that grow past the previous placement's bound and empty again.
// FFD packs {V0, V2} on host 0 and {V1, V3} on host 1. V2 and V3 grow from
// 0.3 to 0.45 of capacity for four hours, so the predictor sizes them up
// in intervals 3-4 (the preceding window) and 14-15 (the same window a day
// later). Then both hosts overflow, the evicted V2 fits no active host and
// opens host 2, one past the previous bound, and V3 joins it. When the
// sizes fall back, host 2 is the lightest (ties go to the highest index),
// and the drain sends V2 to host 0 and V3 to host 1.
TEST(DynamicPlanner, OpenedHostIsDrainedLater) {
  const auto settings = small_settings();
  const ResourceVector cap =
      settings.capacity(settings.dynamic_utilization_bound);
  const double margin = PeakPredictor::Options{}.cpu_safety_margin;
  const std::size_t hours = settings.eval_end();
  const std::size_t begin = settings.eval_begin();
  const auto share = [&](double s) { return s * cap.cpu_rpe2 / margin; };
  const std::vector<VmWorkload> vms = {
      constant_vm("V0", share(0.6), 1024.0, hours),
      constant_vm("V1", share(0.6), 1024.0, hours),
      step_vm("V2", share(0.3), share(0.45), begin + 4, begin + 8, hours),
      step_vm("V3", share(0.3), share(0.45), begin + 4, begin + 8, hours)};
  const auto plan = plan_dynamic(vms, settings);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->per_interval.size(), 24u);

  const std::vector<std::int32_t> packed = {0, 1, 0, 1};
  const std::vector<std::int32_t> spilled = {0, 1, 2, 2};
  for (std::size_t k = 0; k < plan->per_interval.size(); ++k) {
    const bool spill = k == 3 || k == 4 || k == 14 || k == 15;
    EXPECT_EQ(host_vector(plan->per_interval[k]), spill ? spilled : packed)
        << "interval " << k;
  }
  const std::vector<std::size_t> migrations = {0, 0, 0, 2, 0, 2, 0, 0,
                                               0, 0, 0, 0, 0, 0, 2, 0,
                                               2, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(plan->migrations, migrations);
  EXPECT_EQ(plan->max_active_hosts, 3u);
}

// Property: every placement a planner returns obeys the constraints it was
// planned under. Random affinity and anti-affinity pairs, pins and
// spread-k rules over racks of two hosts, through the semi-static,
// stochastic and dynamic planners; hybrid supports spread rules only, so
// it gets just those. Dynamic re-plans evict groups that then need a host
// the rules allow, where an empty host is not always one.
TEST(PlanConstraints, RandomConstraintSetsHoldInEveryPlacement) {
  const auto settings = small_settings();
  const auto vms = small_fleet(60, 7);
  const std::size_t n = vms.size();
  DomainLookup racks;
  racks.tail_first_domain = 0;
  racks.tail_hosts_per_domain = 2;
  Rng rng(1208);
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::size_t dynamic_plans = 0;
  std::size_t stochastic_plans = 0;
  std::size_t hybrid_plans = 0;
  for (int trial = 0; trial < 16; ++trial) {
    ConstraintSet cs(n);
    ConstraintSet spread_only(n);
    for (auto i = rng.uniform_int(0, 3); i > 0; --i)
      cs.add_affinity(pick(), pick());
    for (auto i = rng.uniform_int(0, 6); i > 0; --i) {
      const std::size_t a = pick();
      const std::size_t b = pick();
      if (a != b) cs.add_anti_affinity(a, b);
    }
    for (auto i = rng.uniform_int(0, 2); i > 0; --i)
      cs.pin(pick(), static_cast<std::int32_t>(rng.uniform_int(0, 3)));
    for (auto i = rng.uniform_int(2, 6); i > 0; --i) {
      std::vector<std::size_t> members;
      for (auto m = rng.uniform_int(2, 6); m > 0; --m) {
        const std::size_t vm = pick();
        if (std::find(members.begin(), members.end(), vm) == members.end())
          members.push_back(vm);
      }
      const auto cap = static_cast<std::size_t>(rng.uniform_int(1, 2));
      cs.add_domain_spread(members, racks, cap);
      spread_only.add_domain_spread(std::move(members), racks, cap);
    }

    if (const auto semi = plan_semi_static(vms, settings, cs)) {
      EXPECT_TRUE(cs.satisfied_by(semi->placement)) << "trial " << trial;
    }
    if (const auto stochastic = plan_stochastic(vms, settings, cs)) {
      ++stochastic_plans;
      EXPECT_TRUE(cs.satisfied_by(stochastic->placement)) << "trial " << trial;
    }
    if (const auto dynamic = plan_dynamic(vms, settings, cs)) {
      ++dynamic_plans;
      for (std::size_t k = 0; k < dynamic->per_interval.size(); ++k)
        EXPECT_TRUE(cs.satisfied_by(dynamic->per_interval[k]))
            << "dynamic, trial " << trial << ", interval " << k;
    }
    if (const auto hybrid = plan_hybrid(vms, settings, 0.25, spread_only)) {
      ++hybrid_plans;
      for (std::size_t k = 0; k < hybrid->per_interval.size(); ++k)
        EXPECT_TRUE(spread_only.satisfied_by(hybrid->per_interval[k]))
            << "hybrid, trial " << trial << ", interval " << k;
    }
  }
  // The property is not vacuous: most draws yield a dynamic plan, and the
  // PCP packer behind stochastic and hybrid keeps opening fresh hosts past
  // racks already at a spread cap, so those two plan every draw.
  EXPECT_GE(dynamic_plans, 12u);
  EXPECT_EQ(stochastic_plans, 16u);
  EXPECT_EQ(hybrid_plans, 16u);
}

}  // namespace
}  // namespace vmcw
