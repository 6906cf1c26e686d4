// Tests for the maintenance-evacuation planner.

#include "core/evacuation.h"

#include <gtest/gtest.h>

#include "core/planners.h"
#include "hardware/catalog.h"
#include "test_helpers.h"

namespace vmcw {
namespace {

using testing::constant_vm;

struct Scenario {
  std::vector<VmWorkload> vms;
  Placement placement;
  HostPool pool = HostPool::uniform(hs23_elite_blade());

  /// Three hosts, two small VMs each.
  Scenario() : placement(6) {
    for (int i = 0; i < 6; ++i)
      vms.push_back(constant_vm(std::string("v") + std::to_string(i), 1000.0, 8192.0, 48));
    for (std::size_t i = 0; i < 6; ++i)
      placement.assign(i, static_cast<std::int32_t>(i / 2));
  }
};

TEST(Evacuation, DrainsHostCompletely) {
  Scenario s;
  const auto plan = plan_evacuation(s.placement, 0, s.vms, 0, s.pool);
  ASSERT_TRUE(plan.has_value());
  for (std::size_t vm = 0; vm < s.vms.size(); ++vm) {
    EXPECT_TRUE(plan->after.is_placed(vm));
    EXPECT_NE(plan->after.host_of(vm), 0);
  }
  EXPECT_EQ(plan->jobs.size(), 2u);  // the two VMs of host 0
  EXPECT_GT(plan->schedule.makespan_s, 0.0);
}

TEST(Evacuation, OnlyEvacueesMove) {
  Scenario s;
  const auto plan = plan_evacuation(s.placement, 1, s.vms, 0, s.pool);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->after.host_of(0), 0);
  EXPECT_EQ(plan->after.host_of(1), 0);
  EXPECT_EQ(plan->after.host_of(4), 2);
  EXPECT_EQ(plan->after.host_of(5), 2);
  EXPECT_EQ(Placement::migrations_between(s.placement, plan->after), 2u);
}

TEST(Evacuation, RespectsDestinationBound) {
  Scenario s;
  // Destination bound so tight nothing fits anywhere else.
  EvacuationOptions options;
  options.destination_bound = 0.05;
  EXPECT_FALSE(
      plan_evacuation(s.placement, 0, s.vms, 0, s.pool, options).has_value());
}

TEST(Evacuation, DoesNotPowerOnIdleHosts) {
  Scenario s;
  // Host 3 exists in the pool but is empty; evacuees must go to hosts 1-2,
  // not wake a new one.
  const auto plan = plan_evacuation(s.placement, 0, s.vms, 0, s.pool);
  ASSERT_TRUE(plan.has_value());
  for (std::size_t vm = 0; vm < 2; ++vm) {
    EXPECT_GE(plan->after.host_of(vm), 1);
    EXPECT_LE(plan->after.host_of(vm), 2);
  }
}

TEST(Evacuation, PinnedToDrainingHostFails) {
  Scenario s;
  ConstraintSet cs(s.vms.size());
  cs.pin(0, 0);
  EXPECT_FALSE(plan_evacuation(s.placement, 0, s.vms, 0, s.pool,
                               EvacuationOptions{}, cs)
                   .has_value());
}

TEST(Evacuation, AntiAffinityHonored) {
  Scenario s;
  ConstraintSet cs(s.vms.size());
  // VM 0 (on host 0) must not share a host with VM 2 (host 1): the drain
  // must send VM 0 to host 2 even though host 1 has room.
  cs.add_anti_affinity(0, 2);
  cs.add_anti_affinity(0, 3);  // and not with VM 3 (also host 1)
  const auto plan = plan_evacuation(s.placement, 0, s.vms, 0, s.pool,
                                    EvacuationOptions{}, cs);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->after.host_of(0), 2);
}

TEST(Evacuation, MakespanScalesWithFootprint) {
  Scenario small;
  Scenario big;
  for (auto& vm : big.vms)
    for (std::size_t t = 0; t < vm.mem_mb.size(); ++t) vm.mem_mb[t] *= 4.0;
  const auto small_plan = plan_evacuation(small.placement, 0, small.vms, 0,
                                          small.pool);
  const auto big_plan = plan_evacuation(big.placement, 0, big.vms, 0,
                                        big.pool);
  ASSERT_TRUE(small_plan && big_plan);
  EXPECT_GT(big_plan->schedule.makespan_s, small_plan->schedule.makespan_s);
}

TEST(Evacuation, GeneratedFleetDrainWorks) {
  const auto vms = testing::small_fleet(60);
  // Place everything via the semi-static planner first.
  const auto settings = testing::small_settings();
  const auto plan = plan_semi_static(vms, settings);
  ASSERT_TRUE(plan.has_value());
  ASSERT_GE(plan->hosts_used, 2u);
  const auto drain =
      plan_evacuation(plan->placement, 0, vms, settings.eval_begin(),
                      HostPool::uniform(settings.target));
  if (drain.has_value()) {  // headroom-dependent; verify structure if it fit
    for (std::size_t vm = 0; vm < vms.size(); ++vm)
      EXPECT_NE(drain->after.host_of(vm), 0);
  }
}

}  // namespace
}  // namespace vmcw
