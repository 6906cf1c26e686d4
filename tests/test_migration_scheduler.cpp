// Tests for the migration execution scheduler (Section 2.1's Execution
// step / Section 7's interval-feasibility argument).

#include "core/migration_scheduler.h"

#include <gtest/gtest.h>

#include <bit>

#include "core/dynamic.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace vmcw {
namespace {

using testing::constant_vm;
using testing::small_fleet;
using testing::small_settings;

std::vector<VmWorkload> three_vms() {
  std::vector<VmWorkload> vms;
  vms.push_back(constant_vm("a", 100, 4096, 48));
  vms.push_back(constant_vm("b", 100, 4096, 48));
  vms.push_back(constant_vm("c", 100, 8192, 48));
  return vms;
}

TEST(MigrationJobs, OnlyMovedVmsBecomeJobs) {
  const auto vms = three_vms();
  Placement prev(3), next(3);
  prev.assign(0, 0);
  prev.assign(1, 0);
  prev.assign(2, 1);
  next.assign(0, 0);   // stays
  next.assign(1, 2);   // moves
  next.assign(2, 0);   // moves
  const auto jobs = migration_jobs(prev, next, vms, 0, MigrationConfig{});
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].vm, 1u);
  EXPECT_EQ(jobs[1].vm, 2u);
  EXPECT_EQ(jobs[0].from, 0);
  EXPECT_EQ(jobs[0].to, 2);
}

TEST(MigrationJobs, BiggerFootprintTakesLonger) {
  const auto vms = three_vms();
  Placement prev(3), next(3);
  for (std::size_t i = 0; i < 3; ++i) prev.assign(i, 0);
  for (std::size_t i = 0; i < 3; ++i) next.assign(i, 1 + (i == 2));
  const auto jobs = migration_jobs(prev, next, vms, 0, MigrationConfig{});
  ASSERT_EQ(jobs.size(), 3u);
  // VM c has 8 GB committed vs 4 GB for a/b.
  EXPECT_GT(jobs[2].duration_s, jobs[0].duration_s);
  EXPECT_NEAR(jobs[0].duration_s, jobs[1].duration_s, 1e-9);
}

TEST(ScheduleMigrations, EmptyIsZero) {
  const auto schedule = schedule_migrations({});
  EXPECT_DOUBLE_EQ(schedule.makespan_s, 0.0);
  EXPECT_EQ(schedule.peak_concurrency, 0u);
}

TEST(ScheduleMigrations, IndependentJobsRunConcurrently) {
  // Two migrations between disjoint host pairs: makespan = max duration.
  std::vector<MigrationJob> jobs{
      {0, 0, 1, 100.0},
      {1, 2, 3, 60.0},
  };
  const auto schedule = schedule_migrations(jobs, 2);
  EXPECT_DOUBLE_EQ(schedule.makespan_s, 100.0);
  EXPECT_EQ(schedule.peak_concurrency, 2u);
  EXPECT_DOUBLE_EQ(schedule.start_s[0], 0.0);
  EXPECT_DOUBLE_EQ(schedule.start_s[1], 0.0);
}

TEST(ScheduleMigrations, PerHostLimitSerializes) {
  // Three migrations out of the same source with a limit of 1: strictly
  // serial, makespan = sum.
  std::vector<MigrationJob> jobs{
      {0, 0, 1, 50.0},
      {1, 0, 2, 30.0},
      {2, 0, 3, 20.0},
  };
  const auto schedule = schedule_migrations(jobs, 1);
  EXPECT_DOUBLE_EQ(schedule.makespan_s, 100.0);
  EXPECT_EQ(schedule.peak_concurrency, 1u);
}

TEST(ScheduleMigrations, LimitTwoAllowsPairs) {
  std::vector<MigrationJob> jobs{
      {0, 0, 1, 50.0},
      {1, 0, 2, 50.0},
      {2, 0, 3, 50.0},
      {3, 0, 4, 50.0},
  };
  const auto schedule = schedule_migrations(jobs, 2);
  EXPECT_DOUBLE_EQ(schedule.makespan_s, 100.0);  // two waves of two
  EXPECT_EQ(schedule.peak_concurrency, 2u);
}

TEST(ScheduleMigrations, TargetSideAlsoConstrains) {
  // Different sources, same target, limit 1: serial on the target.
  std::vector<MigrationJob> jobs{
      {0, 0, 9, 40.0},
      {1, 1, 9, 40.0},
  };
  const auto schedule = schedule_migrations(jobs, 1);
  EXPECT_DOUBLE_EQ(schedule.makespan_s, 80.0);
}

TEST(ScheduleMigrations, StartTimesRespectConstraints) {
  std::vector<MigrationJob> jobs{
      {0, 0, 1, 50.0},
      {1, 0, 2, 30.0},
  };
  const auto schedule = schedule_migrations(jobs, 1);
  // Longest-first: job 0 starts at 0, job 1 waits for the source slot.
  EXPECT_DOUBLE_EQ(schedule.start_s[0], 0.0);
  EXPECT_DOUBLE_EQ(schedule.start_s[1], 50.0);
}

TEST(ScheduleMigrations, SeededJobSetsArePinned) {
  // Random job sets over a few hosts, with durations on a 10 s grid so
  // ties in the longest-first order and in completion times are common.
  // FNV-1a of every start time's bits, the makespan and the peak.
  using testing::fnv1a;
  std::uint64_t h = testing::kFnvBasis;
  Rng rng(2014);
  for (int set = 0; set < 40; ++set) {
    const auto hosts = rng.uniform_int(2, 12);
    std::vector<MigrationJob> jobs(
        static_cast<std::size_t>(rng.uniform_int(0, 80)));
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      jobs[j].vm = j;
      jobs[j].from = static_cast<std::int32_t>(rng.uniform_int(0, hosts - 1));
      jobs[j].to = static_cast<std::int32_t>(rng.uniform_int(0, hosts - 1));
      jobs[j].duration_s = 10.0 * static_cast<double>(rng.uniform_int(1, 60));
    }
    const int limit = static_cast<int>(rng.uniform_int(1, 3));
    const auto schedule = schedule_migrations(jobs, limit);
    ASSERT_EQ(schedule.start_s.size(), jobs.size());
    for (const double s : schedule.start_s)
      h = fnv1a(h, std::bit_cast<std::uint64_t>(s), 8);
    h = fnv1a(h, std::bit_cast<std::uint64_t>(schedule.makespan_s), 8);
    h = fnv1a(h, schedule.peak_concurrency, 8);
  }
  EXPECT_EQ(h, 14318719265352246488ULL);
}

TEST(ExecutionFeasibility, DynamicPlanExecutesWithinTwoHourIntervals) {
  // The paper's premise: at 2h intervals, a consolidation plan's
  // migrations fit comfortably inside the interval.
  const auto vms = small_fleet(80);
  const auto settings = small_settings();
  const auto plan = plan_dynamic(vms, settings);
  ASSERT_TRUE(plan.has_value());
  const auto feasibility = execution_feasibility(
      plan->per_interval, vms, settings.eval_begin(), settings.interval_hours,
      MigrationConfig{});
  EXPECT_EQ(feasibility.infeasible_intervals, 0u);
  EXPECT_LT(feasibility.worst_utilization, 1.0);
  EXPECT_EQ(feasibility.makespan_s.size(), settings.intervals() - 1);
}

TEST(ExecutionFeasibility, NoMigrationsMeansZeroMakespan) {
  std::vector<VmWorkload> vms;
  for (int i = 0; i < 10; ++i)
    vms.push_back(constant_vm(std::string("v") + std::to_string(i), 500, 2048, 168));
  const auto settings = small_settings();
  const auto plan = plan_dynamic(vms, settings);
  ASSERT_TRUE(plan.has_value());
  const auto feasibility = execution_feasibility(
      plan->per_interval, vms, settings.eval_begin(), settings.interval_hours,
      MigrationConfig{});
  EXPECT_DOUBLE_EQ(feasibility.worst_makespan_s, 0.0);
}

}  // namespace
}  // namespace vmcw
