// Fault-injection subsystem (src/chaos): deterministic fault schedules,
// failure-aware replay, and the determinism contract under faults.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/replay.h"
#include "core/dynamic.h"
#include "core/emulator.h"
#include "core/migration_scheduler.h"
#include "hardware/catalog.h"
#include "sweep/sweep.h"
#include "runtime/thread_pool.h"
#include "test_helpers.h"
#include "topology/failure_domains.h"
#include "util/rng.h"

namespace vmcw {
namespace {

using testing::constant_vm;
using testing::small_settings;

// -- fixtures ---------------------------------------------------------

// `hosts` constant VMs, one per host, modest footprint (~10 fit per blade).
std::vector<VmWorkload> one_vm_per_host(std::size_t hosts,
                                        const StudySettings& settings) {
  std::vector<VmWorkload> vms;
  const std::size_t hours = settings.eval_end();
  for (std::size_t i = 0; i < hosts; ++i)
    vms.push_back(constant_vm("vm-" + std::to_string(i), 2000.0, 8000.0,
                              hours));
  return vms;
}

Placement spread(std::size_t vms) {
  Placement p(vms);
  for (std::size_t vm = 0; vm < vms; ++vm)
    p.assign(vm, static_cast<std::int32_t>(vm));
  return p;
}

void expect_same_emulation(const EmulationReport& a, const EmulationReport& b) {
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
  EXPECT_EQ(a.energy_wh, b.energy_wh);  // bitwise, not approximate
}

// -- FaultPlan generation ---------------------------------------------

TEST(FaultPlan, GenerateIsDeterministic) {
  const auto settings = small_settings();
  const auto spec = FaultSpec::at_intensity(1.0);
  const auto a = FaultPlan::generate(spec, 32, settings, 7);
  const auto b = FaultPlan::generate(spec, 32, settings, 7);
  EXPECT_EQ(a.outages(), b.outages());
  EXPECT_EQ(a.stale_intervals(), b.stale_intervals());
  for (std::size_t vm = 0; vm < 40; ++vm)
    for (int attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(a.migration_attempt_fails(vm, 3, attempt),
                b.migration_attempt_fails(vm, 3, attempt));
      EXPECT_EQ(a.migration_slowdown(vm, 3), b.migration_slowdown(vm, 3));
    }
}

TEST(FaultPlan, SeedsProduceDifferentSchedules) {
  const auto settings = small_settings();
  const auto spec = FaultSpec::at_intensity(1.0);
  const auto a = FaultPlan::generate(spec, 32, settings, 7);
  const auto b = FaultPlan::generate(spec, 32, settings, 8);
  EXPECT_NE(a.outages(), b.outages());
}

TEST(FaultPlan, PerHostStreamsAreIndependent) {
  // Growing the fleet must not perturb the outage schedule of the hosts
  // that were already there (keyed forks per host).
  const auto settings = small_settings();
  const auto spec = FaultSpec::at_intensity(1.0);
  const auto small = FaultPlan::generate(spec, 16, settings, 7);
  const auto large = FaultPlan::generate(spec, 24, settings, 7);
  std::vector<HostOutage> small_prefix;
  for (const auto& o : large.outages())
    if (o.host < 16) small_prefix.push_back(o);
  EXPECT_EQ(small.outages(), small_prefix);
}

TEST(FaultPlan, OutagesStayInsideEvaluationWindow) {
  const auto settings = small_settings();
  const auto plan =
      FaultPlan::generate(FaultSpec::at_intensity(1.0), 64, settings, 3);
  for (const auto& o : plan.outages()) {
    EXPECT_GE(o.down_from, settings.eval_begin());
    EXPECT_LT(o.down_from, settings.eval_end());
    EXPECT_GT(o.up_at, o.down_from);
  }
}

TEST(FaultPlan, IntensityZeroInjectsNothing) {
  const auto settings = small_settings();
  const auto plan =
      FaultPlan::generate(FaultSpec::at_intensity(0.0), 64, settings, 3);
  EXPECT_FALSE(plan.any());
  EXPECT_TRUE(plan.outages().empty());
  EXPECT_EQ(plan.stale_interval_count(), 0u);
  EXPECT_FALSE(plan.migration_attempt_fails(0, 0, 0));
  EXPECT_EQ(plan.migration_slowdown(0, 0), 1.0);
}

TEST(FaultPlan, GeneratedScheduleMatchesPreTopologyBaseline) {
  // Golden pin, captured before the failure-domain layer existed: the
  // per-host and monitoring streams must stay byte-identical now that the
  // generator also knows about domain streams and validation.
  const auto settings = small_settings();
  const auto plan =
      FaultPlan::generate(FaultSpec::at_intensity(1.0), 32, settings, 7);
  std::string outage_string;
  char buf[128];
  for (const auto& o : plan.outages()) {
    std::snprintf(buf, sizeof buf, "%zu:%zu:%zu;", o.host, o.down_from,
                  o.up_at);
    outage_string += buf;
  }
  EXPECT_EQ(plan.outages().size(), 6u);
  EXPECT_EQ(hash64(outage_string), 0xd61325a0d2dcbc2cULL);
  std::string stale_bitmap;
  for (const auto v : plan.stale_intervals()) stale_bitmap += v ? '1' : '0';
  EXPECT_EQ(plan.stale_interval_count(), 8u);
  EXPECT_EQ(hash64(stale_bitmap), 0xfece26af1ed96089ULL);
  // Generated host outages are uncorrelated by definition.
  for (const auto& o : plan.outages()) {
    EXPECT_EQ(o.cause, OutageCause::kHost);
    EXPECT_EQ(o.domain, -1);
  }
}

TEST(FaultPlan, ZeroDomainRatesIgnoreTopology) {
  // Passing a topology without any domain rate must change nothing: the
  // domain streams are keyed forks, never drawn unless a rate asks.
  const auto settings = small_settings();
  const auto spec = FaultSpec::at_intensity(1.0);
  FailureDomainMap map =
      FailureDomainMap::generate(HostPool::uniform(settings.target), 32,
                                 TopologySpec{}, 5);
  const auto without = FaultPlan::generate(spec, 32, settings, 7);
  const auto with = FaultPlan::generate(spec, 32, settings, 7, &map);
  EXPECT_EQ(without.outages(), with.outages());
  EXPECT_EQ(without.stale_intervals(), with.stale_intervals());
}

TEST(FaultPlan, DomainOutagesAreSynchronizedAcrossMembers) {
  const auto settings = small_settings();
  FailureDomainMap map;
  // Two racks of three hosts, one power domain each.
  for (std::size_t h = 0; h < 6; ++h) map.assign(h, h / 3, h / 3);
  FaultSpec spec;
  spec.rack_outages_per_month = 40.0;  // dense enough to hit the window
  spec.domain_outage_hours_min = 2;
  spec.domain_outage_hours_max = 5;
  const auto plan = FaultPlan::generate(spec, 6, settings, 11);
  ASSERT_TRUE(plan.outages().empty());  // no topology, no domain faults
  const auto with = FaultPlan::generate(spec, 6, settings, 11, &map);
  ASSERT_FALSE(with.outages().empty());
  // Every outage is rack-caused, and each (domain, start) hits all three
  // members with one shared window.
  std::map<std::pair<std::int32_t, std::size_t>, std::vector<HostOutage>>
      incidents;
  for (const auto& o : with.outages()) {
    EXPECT_EQ(o.cause, OutageCause::kRack);
    incidents[{o.domain, o.down_from}].push_back(o);
  }
  for (const auto& [key, members] : incidents) {
    EXPECT_EQ(members.size(), 3u) << "rack " << key.first;
    for (const auto& o : members) {
      EXPECT_EQ(o.up_at, members[0].up_at);
      EXPECT_EQ(static_cast<std::int32_t>(o.host / 3), key.first);
    }
  }
}

TEST(FaultPlan, DomainStreamsAreIndependentOfSiblingDomains) {
  // Adding a rack must not perturb the outage schedule of the racks that
  // were already there (keyed fork per domain).
  const auto settings = small_settings();
  FaultSpec spec;
  spec.rack_outages_per_month = 40.0;
  FailureDomainMap two_racks, three_racks;
  for (std::size_t h = 0; h < 8; ++h) two_racks.assign(h, h / 4, 0);
  for (std::size_t h = 0; h < 12; ++h) three_racks.assign(h, h / 4, 0);
  const auto a = FaultPlan::generate(spec, 8, settings, 11, &two_racks);
  const auto b = FaultPlan::generate(spec, 12, settings, 11, &three_racks);
  std::vector<HostOutage> prefix;
  for (const auto& o : b.outages())
    if (o.host < 8) prefix.push_back(o);
  EXPECT_EQ(a.outages(), prefix);
}

TEST(FaultPlan, ValidationClampsNegativeRates) {
  FaultSpec spec;
  spec.host_crashes_per_month = -3.0;
  spec.migration_failure_rate = -0.5;
  spec.migration_slowdown_rate = -1.0;
  spec.monitoring_gap_rate = -0.25;
  spec.rack_outages_per_month = -2.0;
  spec.power_domain_outages_per_month = -7.0;
  const FaultSpec v = spec.validated();
  EXPECT_EQ(v.host_crashes_per_month, 0.0);
  EXPECT_EQ(v.migration_failure_rate, 0.0);
  EXPECT_EQ(v.migration_slowdown_rate, 0.0);
  EXPECT_EQ(v.monitoring_gap_rate, 0.0);
  EXPECT_EQ(v.rack_outages_per_month, 0.0);
  EXPECT_EQ(v.power_domain_outages_per_month, 0.0);
  // A hostile spec degrades to "inject nothing", not to a corrupt plan.
  const auto plan =
      FaultPlan::generate(spec, 16, testing::small_settings(), 3);
  EXPECT_TRUE(plan.outages().empty());
  EXPECT_EQ(plan.stale_interval_count(), 0u);
}

TEST(FaultPlan, ValidationOrdersInvertedRebootBounds) {
  FaultSpec spec;
  spec.reboot_hours_min = 10;
  spec.reboot_hours_max = 2;
  spec.domain_outage_hours_min = 9;
  spec.domain_outage_hours_max = 0;
  const FaultSpec v = spec.validated();
  EXPECT_EQ(v.reboot_hours_min, 10u);
  EXPECT_EQ(v.reboot_hours_max, 10u);
  EXPECT_EQ(v.domain_outage_hours_min, 9u);
  EXPECT_EQ(v.domain_outage_hours_max, 9u);
  // Every generated outage then lasts exactly the pinned duration.
  spec.host_crashes_per_month = 20.0;
  const auto plan =
      FaultPlan::generate(spec, 16, testing::small_settings(), 3);
  ASSERT_FALSE(plan.outages().empty());
  for (const auto& o : plan.outages()) EXPECT_EQ(o.up_at - o.down_from, 10u);
}

TEST(FaultPlan, ValidationClampsSlowdownBelowOne) {
  FaultSpec spec;
  spec.migration_slowdown_rate = 1.0;
  spec.migration_slowdown_max = 0.5;  // would *speed up* migrations
  EXPECT_EQ(spec.validated().migration_slowdown_max, 1.0);
  const auto plan =
      FaultPlan::generate(spec, 4, testing::small_settings(), 3);
  for (std::size_t vm = 0; vm < 8; ++vm)
    EXPECT_EQ(plan.migration_slowdown(vm, 2), 1.0);
}

TEST(FaultPlan, OverlappingOutagesMergeIntoOne) {
  // An independent crash inside an existing outage window is one
  // continuous outage — capacity lost must not double-count.
  FaultPlan plan;
  plan.add_outage(3, 100, 104);
  plan.add_outage(3, 102, 106);
  ASSERT_EQ(plan.outages().size(), 1u);
  EXPECT_EQ(plan.outages()[0].host, 3u);
  EXPECT_EQ(plan.outages()[0].down_from, 100u);
  EXPECT_EQ(plan.outages()[0].up_at, 106u);
  // A contained window disappears entirely.
  plan.add_outage(3, 101, 103);
  ASSERT_EQ(plan.outages().size(), 1u);
  EXPECT_EQ(plan.outages()[0].up_at, 106u);
  // Back-to-back windows stay distinct crashes.
  plan.add_outage(3, 106, 108);
  EXPECT_EQ(plan.outages().size(), 2u);
  // Other hosts are untouched.
  plan.add_outage(4, 101, 103);
  EXPECT_EQ(plan.outages().size(), 3u);
}

TEST(FaultPlan, ScriptedDomainOutageHitsEveryMember) {
  FailureDomainMap map;
  for (std::size_t h = 0; h < 6; ++h) map.assign(h, h / 3, 0);
  FaultPlan plan;
  plan.add_domain_outage(map, DomainKind::kRack, 1, 200, 204);
  ASSERT_EQ(plan.outages().size(), 3u);
  for (const auto& o : plan.outages()) {
    EXPECT_GE(o.host, 3u);
    EXPECT_EQ(o.down_from, 200u);
    EXPECT_EQ(o.up_at, 204u);
    EXPECT_EQ(o.cause, OutageCause::kRack);
    EXPECT_EQ(o.domain, 1);
  }
}

TEST(FaultPlan, ScriptedFaultsWork) {
  FaultPlan plan;
  EXPECT_FALSE(plan.any());
  plan.add_outage(3, 100, 105);
  plan.force_stale(7);
  plan.force_migration_failures(11, 4, 2);
  EXPECT_TRUE(plan.any());
  EXPECT_TRUE(plan.host_down(3, 100));
  EXPECT_TRUE(plan.host_down(3, 104));
  EXPECT_FALSE(plan.host_down(3, 105));
  EXPECT_TRUE(plan.monitoring_stale(7));
  EXPECT_FALSE(plan.monitoring_stale(6));
  EXPECT_TRUE(plan.migration_attempt_fails(11, 4, 0));
  EXPECT_TRUE(plan.migration_attempt_fails(11, 4, 1));
  EXPECT_FALSE(plan.migration_attempt_fails(11, 4, 2));
  EXPECT_FALSE(plan.migration_attempt_fails(11, 5, 0));  // other interval
}

// -- retry scheduling -------------------------------------------------

TEST(RetryPolicy, BackoffDoublesAndCaps) {
  RetryPolicy policy;  // base 30, cap 480
  EXPECT_DOUBLE_EQ(policy.backoff_for(1), 30.0);
  EXPECT_DOUBLE_EQ(policy.backoff_for(2), 60.0);
  EXPECT_DOUBLE_EQ(policy.backoff_for(3), 120.0);
  EXPECT_DOUBLE_EQ(policy.backoff_for(5), 480.0);
  EXPECT_DOUBLE_EQ(policy.backoff_for(50), 480.0);
}

// Attempts fail when `attempt_fails` says so, inside an interval of
// `deadline_s`, with the default retry policy and no slowdown.
MigrationFaults deadline_faults(
    double deadline_s, std::function<bool(std::size_t, int)> attempt_fails) {
  MigrationFaults faults;
  faults.deadline_s = deadline_s;
  faults.attempt_fails = std::move(attempt_fails);
  return faults;
}

TEST(RetrySchedule, FailNTimesThenSucceed) {
  MigrationJob job;
  job.vm = 0;
  job.from = 0;
  job.to = 1;
  job.duration_s = 100.0;
  const std::vector<MigrationJob> jobs{job};
  const auto result = schedule_migrations(
      jobs, 2, deadline_faults(7200.0, [](std::size_t, int attempt) {
        return attempt < 2;
      }));
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_TRUE(result.jobs[0].completed);
  EXPECT_EQ(result.jobs[0].attempts, 3);
  EXPECT_EQ(result.total_attempts, 3u);
  EXPECT_EQ(result.failed_attempts, 2u);
  EXPECT_EQ(result.retries, 2u);
  EXPECT_EQ(result.abandoned, 0u);
  // 3 runs of 100 s + backoffs of 30 s and 60 s.
  EXPECT_DOUBLE_EQ(result.jobs[0].finish_s, 390.0);
}

TEST(RetrySchedule, ExhaustsAttemptBudget) {
  MigrationJob job;
  job.duration_s = 100.0;
  job.from = 0;
  job.to = 1;
  const std::vector<MigrationJob> jobs{job};
  const auto result = schedule_migrations(  // every attempt fails
      jobs, 2, deadline_faults(7200.0, [](std::size_t, int) { return true; }));
  EXPECT_FALSE(result.jobs[0].completed);
  EXPECT_EQ(result.jobs[0].attempts, 4);  // default max_attempts
  EXPECT_EQ(result.abandoned, 1u);
}

TEST(RetrySchedule, RespectsDeadline) {
  MigrationJob job;
  job.duration_s = 100.0;
  job.from = 0;
  job.to = 1;
  const std::vector<MigrationJob> jobs{job};
  const auto result = schedule_migrations(
      jobs, 2, deadline_faults(50.0, [](std::size_t, int) { return false; }));
  // Cannot finish inside the deadline: deferred without burning an attempt.
  EXPECT_FALSE(result.jobs[0].completed);
  EXPECT_EQ(result.jobs[0].attempts, 0);
  EXPECT_EQ(result.abandoned, 1u);
}

TEST(RetrySchedule, SlowdownStretchesDuration) {
  MigrationJob job;
  job.duration_s = 100.0;
  job.from = 0;
  job.to = 1;
  const std::vector<MigrationJob> jobs{job};
  MigrationFaults faults =
      deadline_faults(7200.0, [](std::size_t, int) { return false; });
  faults.slowdown = [](std::size_t) { return 3.0; };
  const auto result = schedule_migrations(jobs, 2, faults);
  EXPECT_TRUE(result.jobs[0].completed);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish_s, 300.0);
}

TEST(RetrySchedule, NoFaultsMatchesPlainScheduler) {
  // A callback that never fails and a deadline that never binds schedule
  // exactly as no faults at all: the plain LJF list schedule.
  std::vector<MigrationJob> jobs;
  for (int i = 0; i < 6; ++i) {
    MigrationJob job;
    job.vm = static_cast<std::size_t>(i);
    job.from = i % 2;
    job.to = 2 + i % 3;
    job.duration_s = 60.0 + 10.0 * i;
    jobs.push_back(job);
  }
  const auto plain = schedule_migrations(jobs, 2);
  const auto faulty = schedule_migrations(
      jobs, 2, deadline_faults(7200.0, [](std::size_t, int) { return false; }));
  EXPECT_EQ(faulty.total_attempts, jobs.size());
  EXPECT_EQ(faulty.retries, 0u);
  EXPECT_DOUBLE_EQ(faulty.makespan_s, plain.makespan_s);
}

TEST(RetrySchedule, SeededFaultMixIsPinned) {
  // Random job sets under a mix of failing attempts, slowed jobs and
  // interval deadlines (some too short for the longest jobs). FNV-1a of
  // every job's attempts, completion and finish time, and the totals.
  using testing::fnv1a;
  std::uint64_t h = testing::kFnvBasis;
  Rng rng(1208);
  for (int set = 0; set < 40; ++set) {
    const auto hosts = rng.uniform_int(2, 12);
    std::vector<MigrationJob> jobs(
        static_cast<std::size_t>(rng.uniform_int(0, 60)));
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      jobs[j].vm = j;
      jobs[j].from = static_cast<std::int32_t>(rng.uniform_int(0, hosts - 1));
      jobs[j].to = static_cast<std::int32_t>(rng.uniform_int(0, hosts - 1));
      jobs[j].duration_s = 10.0 * static_cast<double>(rng.uniform_int(1, 60));
    }
    const int limit = static_cast<int>(rng.uniform_int(1, 3));
    RetryPolicy policy;
    policy.max_attempts = static_cast<int>(rng.uniform_int(1, 5));
    const double deadline_s =
        rng.bernoulli(0.5) ? 7200.0 : 60.0 * static_cast<double>(
                                              rng.uniform_int(5, 60));
    const double fail_p = rng.uniform(0.0, 0.6);
    const double slow_p = rng.uniform(0.0, 0.4);
    const auto key = static_cast<std::uint64_t>(set);
    MigrationFaults faults = deadline_faults(
        deadline_s, [&](std::size_t j, int attempt) {
          return hashed_uniform(key, j, static_cast<std::uint64_t>(attempt),
                                1) < fail_p;
        });
    faults.policy = policy;
    faults.slowdown = [&](std::size_t j) {
      return hashed_uniform(key, j, 0, 2) < slow_p ? 2.5 : 1.0;
    };
    const auto result = schedule_migrations(jobs, limit, faults);
    ASSERT_EQ(result.jobs.size(), jobs.size());
    for (const JobAttempts& job : result.jobs) {
      h = fnv1a(h, static_cast<std::uint64_t>(job.attempts), 4);
      h = fnv1a(h, job.completed ? 1u : 0u, 1);
      h = fnv1a(h, std::bit_cast<std::uint64_t>(job.finish_s), 8);
    }
    h = fnv1a(h, std::bit_cast<std::uint64_t>(result.makespan_s), 8);
    for (const std::size_t n : {result.total_attempts, result.failed_attempts,
                                result.retries, result.abandoned})
      h = fnv1a(h, n, 8);
  }
  EXPECT_EQ(h, 3409434715825088524ULL);
}

// -- failure-aware replay ---------------------------------------------

TEST(ChaosReplay, NoFaultPlanReproducesEmulator) {
  // Acceptance: fault intensity 0 => replay is identical to emulate().
  const auto vms = testing::small_fleet(50, 11);
  const auto settings = small_settings();
  Placement p(vms.size());
  for (std::size_t vm = 0; vm < vms.size(); ++vm)
    p.assign(vm, static_cast<std::int32_t>(vm % 8));
  const std::vector<Placement> schedule{p};

  const auto direct = emulate(vms, schedule, settings, false);
  const auto replayed =
      replay_under_faults(vms, schedule, settings, false, FaultPlan{});
  expect_same_emulation(direct, replayed.emulation);
  EXPECT_EQ(replayed.host_crashes, 0u);
  EXPECT_EQ(replayed.vm_downtime_hours, 0u);
  EXPECT_EQ(replayed.migration_retries, 0u);
  EXPECT_EQ(replayed.stale_intervals, 0u);
  EXPECT_TRUE(replayed.sla_violation_intervals.empty());
  EXPECT_DOUBLE_EQ(replayed.availability(), 1.0);
}

TEST(ChaosReplay, ZeroIntensityGeneratedPlanAlsoReproducesEmulator) {
  const auto vms = testing::small_fleet(50, 11);
  const auto settings = small_settings();
  Placement p(vms.size());
  for (std::size_t vm = 0; vm < vms.size(); ++vm)
    p.assign(vm, static_cast<std::int32_t>(vm % 8));
  const std::vector<Placement> schedule{p};
  const auto plan =
      FaultPlan::generate(FaultSpec::at_intensity(0.0), 8, settings, 99);
  const auto direct = emulate(vms, schedule, settings, false);
  const auto replayed =
      replay_under_faults(vms, schedule, settings, false, plan);
  expect_same_emulation(direct, replayed.emulation);
}

TEST(ChaosReplay, CrashedHostIsEvacuatedMidInterval) {
  const auto settings = small_settings();
  const auto vms = one_vm_per_host(4, settings);
  const std::vector<Placement> schedule{spread(vms.size())};

  FaultPlan plan;
  // Crash host 0 three hours into the window; hosts 1-3 have headroom.
  const std::size_t crash_hour = settings.eval_begin() + 3;
  plan.add_outage(0, crash_hour, crash_hour + 5);
  const auto rob = replay_under_faults(vms, schedule, settings, false, plan);

  EXPECT_EQ(rob.host_crashes, 1u);
  EXPECT_EQ(rob.evacuations, 1u);
  EXPECT_EQ(rob.failed_evacuations, 0u);
  // The drain moved the VM before it lost an hour.
  EXPECT_EQ(rob.vm_downtime_hours, 0u);
  EXPECT_DOUBLE_EQ(rob.availability(), 1.0);
  EXPECT_DOUBLE_EQ(rob.capacity_lost_host_hours, 5.0);
}

TEST(ChaosReplay, FailedEvacuationCountsDowntime) {
  const auto settings = small_settings();
  // Every VM on one host: a crash has nowhere to drain to.
  const auto vms = one_vm_per_host(3, settings);
  Placement p(vms.size());
  for (std::size_t vm = 0; vm < vms.size(); ++vm) p.assign(vm, 0);
  const std::vector<Placement> schedule{p};

  FaultPlan plan;
  const std::size_t crash_hour = settings.eval_begin() + 2;
  plan.add_outage(0, crash_hour, crash_hour + 4);
  const auto rob = replay_under_faults(vms, schedule, settings, false, plan);

  EXPECT_EQ(rob.host_crashes, 1u);
  EXPECT_EQ(rob.evacuations, 0u);
  EXPECT_EQ(rob.failed_evacuations, 1u);
  EXPECT_EQ(rob.vm_downtime_hours, 3u * 4u);
  for (const auto hours : rob.vm_down_hours) EXPECT_EQ(hours, 4u);
  ASSERT_EQ(rob.sla_violation_intervals.size(), 1u);
  EXPECT_EQ(rob.sla_violation_intervals[0].first, crash_hour);
  EXPECT_EQ(rob.sla_violation_intervals[0].second, crash_hour + 4);
  EXPECT_LT(rob.availability(), 1.0);
}

// Every report field under generated faults plus crashes that land in the
// middle of intervals, one at a time (drains succeed) and all but one host
// together (drains find no room), on a uniform and on a mixed pool.
TEST(ChaosReplay, FaultedReportsArePinned) {
  const auto settings = small_settings();
  const auto vms = testing::small_fleet(300, 5);
  const auto dynamic = plan_dynamic(vms, settings);
  ASSERT_TRUE(dynamic.has_value());
  std::size_t hosts = 0;
  for (const auto& p : dynamic->per_interval)
    hosts = std::max(hosts, p.host_index_bound());
  auto plan = FaultPlan::generate(FaultSpec::at_intensity(1.0), hosts,
                                  settings, 3);
  for (std::size_t h = 0; h < hosts; h += 2)
    plan.add_outage(h, settings.eval_begin() + 3 + 5 * h,
                    settings.eval_begin() + 6 + 5 * h);
  // Every host but one at once: most drains find no room.
  for (std::size_t h = 1; h < hosts; ++h)
    plan.add_outage(h, settings.eval_begin() + 37, settings.eval_begin() + 40);

  std::uint64_t h = testing::kFnvBasis;
  const auto count = [&h](std::size_t n) { h = testing::fnv1a(h, n, 8); };
  std::size_t evacuations = 0, failed = 0, down = 0;
  for (const HostPool& pool :
       {HostPool::uniform(settings.target),
        HostPool({{hs22_blade(), 4},
                  {settings.target, HostClass::kUnlimited}})}) {
    const auto rob = replay_under_faults(vms, dynamic->per_interval, settings,
                                         true, plan, ChaosOptions{}, pool);
    count(testing::emulation_hash(rob.emulation));
    for (const std::size_t n :
         {rob.host_crashes, rob.stale_intervals, rob.migration_attempts,
          rob.failed_migration_attempts, rob.migration_retries,
          rob.migrations_completed, rob.migrations_deferred, rob.evacuations,
          rob.failed_evacuations, rob.vm_downtime_hours,
          rob.max_vms_down_simultaneously})
      count(n);
    count(std::bit_cast<std::uint64_t>(rob.capacity_lost_host_hours));
    for (const std::size_t n : rob.vm_down_hours) count(n);
    for (const auto& [from, to] : rob.sla_violation_intervals) {
      count(from);
      count(to);
    }
    evacuations += rob.evacuations;
    failed += rob.failed_evacuations;
    down += rob.vm_downtime_hours;
  }
  EXPECT_GT(evacuations, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(down, 0u);
  EXPECT_EQ(h, 11918446665069871770ULL);
}

// Dynamic-style schedule: vm 0 moves from host 0 to host 1 at interval 5.
std::vector<Placement> move_at_interval_5(std::size_t vms,
                                          const StudySettings& settings) {
  std::vector<Placement> schedule;
  for (std::size_t k = 0; k < settings.intervals(); ++k) {
    Placement p = spread(vms);
    if (k >= 5) p.assign(0, 1);
    schedule.push_back(std::move(p));
  }
  return schedule;
}

TEST(ChaosReplay, MigrationFailsTwiceThenSucceeds) {
  const auto settings = small_settings();
  const auto vms = one_vm_per_host(4, settings);
  const auto schedule = move_at_interval_5(vms.size(), settings);

  FaultPlan plan;
  plan.force_migration_failures(0, 5, 2);
  const auto rob = replay_under_faults(vms, schedule, settings, false, plan);

  EXPECT_EQ(rob.migration_attempts, 3u);
  EXPECT_EQ(rob.failed_migration_attempts, 2u);
  EXPECT_EQ(rob.migration_retries, 2u);
  EXPECT_EQ(rob.migrations_completed, 1u);
  EXPECT_EQ(rob.migrations_deferred, 0u);
  EXPECT_EQ(rob.vm_downtime_hours, 0u);

  // The retried replay still converges to the plan, so its final state
  // matches the fault-free replay's.
  const auto clean =
      replay_under_faults(vms, schedule, settings, false, FaultPlan{});
  expect_same_emulation(clean.emulation, rob.emulation);
}

TEST(ChaosReplay, ExhaustedMigrationIsDeferredToNextInterval) {
  const auto settings = small_settings();
  const auto vms = one_vm_per_host(4, settings);
  const auto schedule = move_at_interval_5(vms.size(), settings);

  FaultPlan plan;
  plan.force_migration_failures(0, 5, 100);  // interval 5 never succeeds
  const auto rob = replay_under_faults(vms, schedule, settings, false, plan);

  // 4 failed attempts in interval 5 (abandoned), then success at 6.
  EXPECT_EQ(rob.migrations_deferred, 1u);
  EXPECT_EQ(rob.migrations_completed, 1u);
  EXPECT_EQ(rob.failed_migration_attempts, 4u);
  EXPECT_GE(rob.migration_attempts, 5u);
}

TEST(ChaosReplay, StaleTelemetryDefersThePlan) {
  const auto settings = small_settings();
  const auto vms = one_vm_per_host(4, settings);
  const auto schedule = move_at_interval_5(vms.size(), settings);

  FaultPlan plan;
  plan.force_stale(5);
  const auto rob = replay_under_faults(vms, schedule, settings, false, plan);

  // Degraded mode at interval 5 re-applies plan 4 (no move); the move
  // happens when telemetry recovers at interval 6.
  EXPECT_EQ(rob.stale_intervals, 1u);
  EXPECT_EQ(rob.migrations_completed, 1u);
  EXPECT_EQ(rob.vm_downtime_hours, 0u);
}

TEST(ChaosReplay, CrashOfMigrationTargetDefersJobs) {
  const auto settings = small_settings();
  const auto vms = one_vm_per_host(4, settings);
  // The plan moves vm 0 from host 0 to the (empty) host 4 at interval 5.
  std::vector<Placement> schedule;
  for (std::size_t k = 0; k < settings.intervals(); ++k) {
    Placement p = spread(vms.size());
    if (k >= 5) p.assign(0, 4);
    schedule.push_back(std::move(p));
  }

  FaultPlan plan;
  // Host 4 is down across the interval-5 boundary (hours 129-130; interval
  // 5 starts at hour 130), rebooting one hour into the interval.
  const std::size_t boundary =
      settings.eval_begin() + 5 * settings.interval_hours;
  plan.add_outage(4, boundary - 1, boundary + 1);
  const auto rob = replay_under_faults(vms, schedule, settings, false, plan);

  // Host 4 was empty when it crashed: no evacuation, no downtime — but the
  // interval-5 job targeting it is deferred, then recomputed and completed
  // at interval 6.
  EXPECT_EQ(rob.host_crashes, 1u);
  EXPECT_EQ(rob.evacuations, 0u);
  EXPECT_EQ(rob.failed_evacuations, 0u);
  EXPECT_DOUBLE_EQ(rob.capacity_lost_host_hours, 0.0);
  EXPECT_EQ(rob.vm_downtime_hours, 0u);
  EXPECT_EQ(rob.migrations_deferred, 1u);
  EXPECT_EQ(rob.migrations_completed, 1u);
}

// -- determinism under faults -----------------------------------------

std::string chaos_fingerprint(const std::vector<SweepCellResult>& results) {
  std::string fp;
  char buffer[192];
  for (const auto& r : results) {
    const auto& rob = r.robustness;
    std::snprintf(buffer, sizeof(buffer),
                  "%zu|%d|%zu|%zu|%zu|%zu|%zu|%zu|%zu|%a|%a;", r.index,
                  r.planned ? 1 : 0, rob.host_crashes, rob.evacuations,
                  rob.migration_attempts, rob.migration_retries,
                  rob.migrations_deferred, rob.stale_intervals,
                  rob.vm_downtime_hours, rob.capacity_lost_host_hours,
                  r.report.energy_wh);
    fp += buffer;
  }
  return fp;
}

TEST(ChaosDeterminism, SweepIdenticalAtAnyThreadCount) {
  std::vector<WorkloadSpec> specs{scaled_down(banking_spec(), 40, 168)};
  const StudySettings settings[] = {small_settings()};
  const Strategy strategies[] = {Strategy::kSemiStatic, Strategy::kDynamic};
  const std::uint64_t seeds[] = {42};
  auto cells = SweepDriver::grid(specs, settings, strategies, seeds);
  for (auto& cell : cells) cell.faults = FaultSpec::at_intensity(1.0);

  std::string reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(pool);
    const auto results = SweepDriver(&pool).run(cells);
    const std::string fp = chaos_fingerprint(results);
    if (reference.empty())
      reference = fp;
    else
      EXPECT_EQ(fp, reference) << "at " << threads << " threads";
  }
  EXPECT_FALSE(reference.empty());
}

TEST(ChaosDeterminism, SweepFingerprintMatchesPreTopologyBaseline) {
  // Golden pin captured before the failure-domain layer: an uncorrelated
  // fault sweep must produce byte-identical robustness counters now.
  std::vector<WorkloadSpec> specs{scaled_down(banking_spec(), 40, 168)};
  const StudySettings settings[] = {small_settings()};
  const Strategy strategies[] = {Strategy::kSemiStatic, Strategy::kDynamic};
  const std::uint64_t seeds[] = {42};
  auto cells = SweepDriver::grid(specs, settings, strategies, seeds);
  for (auto& cell : cells) cell.faults = FaultSpec::at_intensity(1.0);
  const auto results = SweepDriver().run(cells);
  EXPECT_EQ(chaos_fingerprint(results),
            "0|1|0|0|0|0|0|13|0|0x0p+0|0x1.bf0fdec326006p+13;"
            "1|1|0|0|122|36|0|13|0|0x0p+0|0x1.2ccfdec326005p+13;");
}

TEST(ChaosDeterminism, FailedEvacuationIdenticalAtAnyThreadCount) {
  // The zero-headroom crash path (failed evacuation, stranded VMs, SLA
  // window accounting) must not depend on the worker count either.
  const auto settings = small_settings();
  const auto vms = one_vm_per_host(3, settings);
  Placement p(vms.size());
  for (std::size_t vm = 0; vm < vms.size(); ++vm) p.assign(vm, 0);
  const std::vector<Placement> schedule{p};
  FaultPlan plan;
  const std::size_t crash_hour = settings.eval_begin() + 2;
  plan.add_outage(0, crash_hour, crash_hour + 4);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(pool);
    const auto rob = replay_under_faults(vms, schedule, settings, false, plan);
    EXPECT_EQ(rob.failed_evacuations, 1u) << threads << " threads";
    EXPECT_EQ(rob.vm_downtime_hours, 3u * 4u) << threads << " threads";
    for (const auto hours : rob.vm_down_hours) EXPECT_EQ(hours, 4u);
    ASSERT_EQ(rob.sla_violation_intervals.size(), 1u) << threads << " threads";
    EXPECT_EQ(rob.sla_violation_intervals[0].first, crash_hour);
    EXPECT_EQ(rob.sla_violation_intervals[0].second, crash_hour + 4);
    EXPECT_EQ(rob.max_vms_down_simultaneously, 3u);
  }
}

// Extends chaos_fingerprint with the incident-level counters the
// correlated axis adds (count, worst recovery, blast radius, peak down).
std::string incident_fingerprint(const std::vector<SweepCellResult>& results) {
  std::string fp = chaos_fingerprint(results);
  char buffer[128];
  for (const auto& r : results) {
    const auto& rob = r.robustness;
    std::snprintf(buffer, sizeof(buffer), "%zu|%a|%a|%zu;",
                  rob.incidents.size(), rob.worst_incident_recovery_hours,
                  rob.max_app_blast_radius, rob.max_vms_down_simultaneously);
    fp += buffer;
  }
  return fp;
}

TEST(ChaosDeterminism, CorrelatedSweepIdenticalAtAnyThreadCount) {
  // Rack outages + domain-aware spread exercise the full new path:
  // fork("topology") map, per-domain outage streams, spread-constrained
  // planning, and incident accounting — all bit-identical at any
  // VMCW_THREADS.
  std::vector<WorkloadSpec> specs{scaled_down(banking_spec(), 40, 168)};
  StudySettings with_spread = small_settings();
  with_spread.domains.spread = true;
  const StudySettings settings[] = {small_settings(), with_spread};
  const Strategy strategies[] = {Strategy::kSemiStatic, Strategy::kDynamic};
  const std::uint64_t seeds[] = {42};
  auto cells = SweepDriver::grid(specs, settings, strategies, seeds);
  // small_settings evaluates only 48 h; a realistic monthly rate would
  // leave most racks incident-free, so use a drill-level rate that puts
  // ~2 incidents in every rack's window.
  for (auto& cell : cells) {
    cell.faults.rack_outages_per_month = 30.0;
    cell.faults.domain_outage_hours_min = 2;
    cell.faults.domain_outage_hours_max = 6;
  }

  std::string reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(pool);
    const auto results = SweepDriver(&pool).run(cells);
    ASSERT_EQ(results.size(), cells.size());
    for (const auto& r : results) ASSERT_TRUE(r.planned) << r.index;
    // The correlated rates must actually produce incidents somewhere.
    std::size_t incidents = 0;
    for (const auto& r : results) incidents += r.robustness.incidents.size();
    EXPECT_GT(incidents, 0u);
    const std::string fp = incident_fingerprint(results);
    if (reference.empty())
      reference = fp;
    else
      EXPECT_EQ(fp, reference) << "at " << threads << " threads";
  }
  EXPECT_FALSE(reference.empty());
}

TEST(ChaosDeterminism, IncidentRecordsChargeDomainOutages) {
  // One scripted rack outage over a packed placement: the replay must
  // produce exactly one incident with full blast accounting.
  const auto settings = small_settings();
  auto vms = one_vm_per_host(4, settings);
  for (auto& vm : vms) vm.app = "app-a";  // one app, four replicas
  FailureDomainMap map;
  for (std::size_t h = 0; h < 8; ++h) map.assign(h, h / 2, 0);
  // Replicas packed pairwise: rack 0 holds hosts {0,1} = two replicas.
  Placement p(vms.size());
  for (std::size_t vm = 0; vm < vms.size(); ++vm)
    p.assign(vm, static_cast<std::int32_t>(vm));
  const std::vector<Placement> schedule{p};
  FaultPlan plan;
  const std::size_t hour = settings.eval_begin() + 3;
  plan.add_domain_outage(map, DomainKind::kRack, 0, hour, hour + 4);
  const auto rob = replay_under_faults(vms, schedule, settings, false, plan);
  ASSERT_EQ(rob.incidents.size(), 1u);
  const IncidentRecord& incident = rob.incidents[0];
  EXPECT_EQ(incident.cause, OutageCause::kRack);
  EXPECT_EQ(incident.domain, 0);
  EXPECT_EQ(incident.start_hour, hour);
  EXPECT_EQ(incident.hosts_lost, 2u);
  EXPECT_EQ(incident.vms_affected, 2u);
  // Two of four replicas inside the blast domain.
  EXPECT_DOUBLE_EQ(incident.max_app_blast_fraction, 0.5);
  EXPECT_DOUBLE_EQ(rob.max_app_blast_radius, 0.5);
  EXPECT_GT(rob.worst_incident_recovery_hours, 0.0);
  EXPECT_EQ(rob.worst_incident_recovery_hours,
            incident.recovery_hours);
}

TEST(ChaosDeterminism, FaultedSweepActuallyInjects) {
  std::vector<WorkloadSpec> specs{scaled_down(banking_spec(), 40, 168)};
  const StudySettings settings[] = {small_settings()};
  const Strategy strategies[] = {Strategy::kDynamic};
  const std::uint64_t seeds[] = {42};
  auto cells = SweepDriver::grid(specs, settings, strategies, seeds);
  for (auto& cell : cells) cell.faults = FaultSpec::at_intensity(1.0);
  const auto results = SweepDriver().run(cells);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].planned);
  const auto& rob = results[0].robustness;
  EXPECT_GT(rob.migration_attempts, 0u);
  EXPECT_GT(rob.stale_intervals, 0u);
}

}  // namespace
}  // namespace vmcw
