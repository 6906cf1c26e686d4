// Unit + integration tests for the semi-static and stochastic planners.

#include "core/planners.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "core/emulator.h"
#include "test_helpers.h"
#include "util/stats.h"

namespace vmcw {
namespace {

using testing::constant_vm;
using testing::preset_fleet;
using testing::schedule_hash;
using testing::small_fleet;
using testing::small_settings;

TEST(SemiStaticPlanner, SizesAtHistoryPeak) {
  const auto settings = small_settings();
  std::vector<VmWorkload> vms;
  VmWorkload vm = constant_vm("v", 100.0, 1000.0, 168);
  vm.cpu_rpe2[50] = 900.0;   // history spike
  vm.cpu_rpe2[150] = 5000.0;  // eval-window spike: must NOT affect sizing
  vms.push_back(vm);

  const auto plan = plan_semi_static(vms, settings);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->sizes[0].cpu_rpe2, 900.0);
  EXPECT_DOUBLE_EQ(plan->sizes[0].memory_mb, 1000.0);
}

TEST(SemiStaticPlanner, PlacesEveryVm) {
  const auto vms = small_fleet();
  const auto plan = plan_semi_static(vms, small_settings());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->placement.placed_count(), vms.size());
  EXPECT_GT(plan->hosts_used, 0u);
}

TEST(SemiStaticPlanner, RespectsCapacityOfSizes) {
  const auto vms = small_fleet();
  const auto settings = small_settings();
  const auto plan = plan_semi_static(vms, settings);
  ASSERT_TRUE(plan.has_value());
  const auto capacity = settings.capacity(settings.static_utilization_bound);
  std::vector<ResourceVector> loads(plan->placement.host_index_bound());
  for (std::size_t vm = 0; vm < vms.size(); ++vm)
    loads[static_cast<std::size_t>(plan->placement.host_of(vm))] +=
        plan->sizes[vm];
  for (const auto& load : loads) EXPECT_TRUE(load.fits_within(capacity));
}

TEST(StochasticPlanner, UsesFewerOrEqualHostsThanVanilla) {
  // The whole point of PCP: body sizing + peak clustering packs at least
  // as tight as max sizing.
  const auto vms = small_fleet(120);
  const auto settings = small_settings();
  const auto vanilla = plan_semi_static(vms, settings);
  const auto stochastic = plan_stochastic(vms, settings);
  ASSERT_TRUE(vanilla && stochastic);
  EXPECT_LE(stochastic->hosts_used, vanilla->hosts_used);
}

TEST(StochasticPlanner, PlacesEveryVm) {
  const auto vms = small_fleet();
  const auto plan = plan_stochastic(vms, small_settings());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->placement.placed_count(), vms.size());
}

TEST(Planners, HonorConstraints) {
  const auto vms = small_fleet(40);
  const auto settings = small_settings();
  ConstraintSet cs(vms.size());
  cs.add_affinity(0, 1);
  cs.add_anti_affinity(2, 3);
  cs.pin(4, 0);

  const auto semi = plan_semi_static(vms, settings, cs);
  ASSERT_TRUE(semi.has_value());
  EXPECT_TRUE(cs.satisfied_by(semi->placement));

  const auto stochastic = plan_stochastic(vms, settings, cs);
  ASSERT_TRUE(stochastic.has_value());
  EXPECT_TRUE(cs.satisfied_by(stochastic->placement));
}

TEST(Planners, FailOnOversizedVm) {
  const auto settings = small_settings();
  std::vector<VmWorkload> vms{constant_vm(
      "huge", settings.target.cpu_rpe2 * 2.0, 1000.0, 168)};
  EXPECT_FALSE(plan_semi_static(vms, settings).has_value());
  EXPECT_FALSE(plan_stochastic(vms, settings).has_value());
}

TEST(Planners, EmptyFleet) {
  const std::vector<VmWorkload> vms;
  const auto settings = small_settings();
  const auto semi = plan_semi_static(vms, settings);
  ASSERT_TRUE(semi.has_value());
  EXPECT_EQ(semi->hosts_used, 0u);
}

TEST(StaticPlanner, SizesAtLifetimePeakIncludingEvalWindow) {
  const auto settings = small_settings();
  std::vector<VmWorkload> vms;
  VmWorkload vm = constant_vm("v", 100.0, 1000.0, 168);
  vm.cpu_rpe2[150] = 5000.0;  // spike in the *evaluation* window
  vms.push_back(vm);
  const auto plan = plan_static(vms, settings);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->sizes[0].cpu_rpe2, 5000.0);
}

TEST(StaticPlanner, NeverTighterThanSemiStatic) {
  // Static sizes over a superset of semi-static's horizon, so it can only
  // need at least as many hosts.
  const auto vms = small_fleet(120);
  const auto settings = small_settings();
  const auto stat = plan_static(vms, settings);
  const auto semi = plan_semi_static(vms, settings);
  ASSERT_TRUE(stat && semi);
  EXPECT_GE(stat->hosts_used, semi->hosts_used);
}

TEST(StaticPlanner, NeverExperiencesContention) {
  // Lifetime-peak sizing is an oracle: replaying the same traces can never
  // exceed what was provisioned.
  const auto vms = small_fleet(80);
  const auto settings = small_settings();
  const auto plan = plan_static(vms, settings);
  ASSERT_TRUE(plan.has_value());
  const Placement schedule[] = {plan->placement};
  const auto report = emulate(vms, schedule, settings, false);
  EXPECT_EQ(report.hours_with_contention, 0u);
}

TEST(StochasticPlanner, MemoryPercentileControlsAggressiveness) {
  // With memory sized at the 50th percentile the plan can only get tighter
  // (or equal) compared to max-sized memory.
  const auto vms = small_fleet(120);
  auto settings = small_settings();
  settings.stochastic_memory_percentile = 100.0;
  const auto conservative = plan_stochastic(vms, settings);
  settings.stochastic_memory_percentile = 50.0;
  const auto aggressive = plan_stochastic(vms, settings);
  ASSERT_TRUE(conservative && aggressive);
  EXPECT_LE(aggressive->hosts_used, conservative->hosts_used);
}

// Golden pins of the semi-static and stochastic placements on the four
// Table-2 presets scaled to 120 servers: FNV-1a of the placement and the
// host count. Any change to sizing (history peak, PCP body percentile,
// peak signatures) or to packing order shows up here.
TEST(StochasticPlanner, GoldenPlacementPins) {
  struct Pin {
    std::uint64_t placement;
    std::size_t hosts_used;
  };
  const auto expect_pin = [](const std::optional<StaticPlan>& plan,
                             const Pin& pin, const std::string& label) {
    ASSERT_TRUE(plan.has_value()) << label;
    EXPECT_EQ(schedule_hash({plan->placement}), pin.placement) << label;
    EXPECT_EQ(plan->hosts_used, pin.hosts_used) << label;
  };
  const StudySettings settings;
  const struct {
    WorkloadSpec spec;
    Pin semi_static;
    Pin stochastic;
  } presets[] = {
      {banking_spec(),
       {11105920131081566290ULL, 6},
       {11461394995229956002ULL, 5}},
      {airlines_spec(),
       {17455240412113673551ULL, 15},
       {15535954078503928911ULL, 15}},
      {natural_resources_spec(),
       {3672958834897839374ULL, 12},
       {4855410529575707475ULL, 11}},
      {beverage_spec(),
       {9937271277071502211ULL, 7},
       {1854835962404053716ULL, 6}},
  };
  for (const auto& preset : presets) {
    const auto vms = preset_fleet(preset.spec);
    expect_pin(plan_semi_static(vms, settings), preset.semi_static,
               preset.spec.name + " semi-static");
    expect_pin(plan_stochastic(vms, settings), preset.stochastic,
               preset.spec.name + " stochastic");
  }

  // Memory sized at its median instead of its peak.
  auto median_memory = settings;
  median_memory.stochastic_memory_percentile = 50.0;
  expect_pin(plan_stochastic(preset_fleet(natural_resources_spec()),
                             median_memory),
             {15095386676918994940ULL, 10}, "stochastic, memory p50");
}

}  // namespace
}  // namespace vmcw
