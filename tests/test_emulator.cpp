// Unit + integration tests for the trace-replay emulator, including the
// paper's emulator-accuracy experiment (Section 5.2) as a consistency test.

#include "core/emulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/dynamic.h"
#include "core/host_pool.h"
#include "core/planners.h"
#include "hardware/catalog.h"
#include "hardware/power_model.h"
#include "test_helpers.h"
#include "trace/presets.h"
#include "util/stats.h"

namespace vmcw {
namespace {

using testing::constant_vm;
using testing::emulation_hash;
using testing::fnv1a;
using testing::kFnvBasis;
using testing::preset_fleet;
using testing::small_fleet;
using testing::small_settings;

/// Two constant VMs on one host for 48 hours.
struct TinyScenario {
  std::vector<VmWorkload> vms;
  std::vector<Placement> schedule;
  StudySettings settings;

  TinyScenario() {
    settings = small_settings();
    vms.push_back(constant_vm("a", 4096.0, 10240.0, 168));
    vms.push_back(constant_vm("b", 6144.0, 20480.0, 168));
    Placement p(2);
    p.assign(0, 0);
    p.assign(1, 0);
    schedule.push_back(p);
  }
};

TEST(Emulator, UtilizationOfKnownScenario) {
  TinyScenario s;
  const auto report = emulate(s.vms, s.schedule, s.settings, false);
  ASSERT_EQ(report.host_avg_cpu_util.size(), 1u);
  const double expected = (4096.0 + 6144.0) / s.settings.target.cpu_rpe2;
  EXPECT_NEAR(report.host_avg_cpu_util[0], expected, 1e-9);
  EXPECT_NEAR(report.host_peak_cpu_util[0], expected, 1e-9);
}

TEST(Emulator, EnergyOfKnownScenario) {
  TinyScenario s;
  const auto report = emulate(s.vms, s.schedule, s.settings, false);
  const PowerModel power(s.settings.target);
  const double util = (4096.0 + 6144.0) / s.settings.target.cpu_rpe2;
  EXPECT_NEAR(report.energy_wh,
              power.watts(util) * static_cast<double>(s.settings.eval_hours),
              1e-6);
}

TEST(Emulator, ActiveHostAccounting) {
  TinyScenario s;
  const auto report = emulate(s.vms, s.schedule, s.settings, false);
  EXPECT_EQ(report.provisioned_hosts, 1u);
  EXPECT_EQ(report.intervals, s.settings.intervals());
  ASSERT_EQ(report.active_hosts_per_interval.size(), report.intervals);
  for (auto active : report.active_hosts_per_interval) EXPECT_EQ(active, 1u);
}

TEST(Emulator, NoContentionBelowCapacity) {
  TinyScenario s;
  const auto report = emulate(s.vms, s.schedule, s.settings, false);
  EXPECT_EQ(report.hours_with_contention, 0u);
  EXPECT_TRUE(report.cpu_contention_samples.empty());
  EXPECT_TRUE(report.mem_contention_samples.empty());
  EXPECT_DOUBLE_EQ(report.contention_time_fraction(), 0.0);
}

TEST(Emulator, CpuContentionMeasured) {
  TinyScenario s;
  // Third VM pushes CPU demand to 1.25x capacity.
  s.vms.push_back(constant_vm("c", 0.75 * s.settings.target.cpu_rpe2 + 4096.0,
                              1024.0, 168));
  Placement p(3);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 0);
  s.schedule[0] = p;
  const auto report = emulate(s.vms, s.schedule, s.settings, false);
  EXPECT_EQ(report.hours_with_contention, s.settings.eval_hours);
  ASSERT_EQ(report.cpu_contention_samples.size(), s.settings.eval_hours);
  const double total =
      (4096.0 + 6144.0 + 0.75 * s.settings.target.cpu_rpe2 + 4096.0);
  EXPECT_NEAR(report.cpu_contention_samples[0],
              total / s.settings.target.cpu_rpe2 - 1.0, 1e-9);
  EXPECT_GT(report.host_peak_cpu_util[0], 1.0);  // uncapped, as in Fig 11
}

TEST(Emulator, MemContentionMeasured) {
  TinyScenario s;
  s.vms.push_back(constant_vm("c", 100.0,
                              s.settings.target.memory_mb, 168));
  Placement p(3);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 0);
  s.schedule[0] = p;
  const auto report = emulate(s.vms, s.schedule, s.settings, false);
  EXPECT_FALSE(report.mem_contention_samples.empty());
  EXPECT_EQ(report.hours_with_contention, s.settings.eval_hours);
}

TEST(Emulator, PowerOffVersusIdleHosts) {
  TinyScenario s;
  // VM b parked on host 1 only during the first interval; afterwards both
  // VMs on host 0, host 1 empty.
  Placement first(2);
  first.assign(0, 0);
  first.assign(1, 1);
  Placement rest(2);
  rest.assign(0, 0);
  rest.assign(1, 0);
  s.schedule.assign(s.settings.intervals(), rest);
  s.schedule[0] = first;

  const auto off = emulate(s.vms, s.schedule, s.settings, true);
  const auto idle = emulate(s.vms, s.schedule, s.settings, false);
  const PowerModel power(s.settings.target);
  const double idle_hours =
      static_cast<double>(s.settings.eval_hours - s.settings.interval_hours);
  EXPECT_NEAR(idle.energy_wh - off.energy_wh, power.watts(0.0) * idle_hours,
              1e-6);
}

TEST(Emulator, DynamicScheduleChangesHostCounts) {
  TinyScenario s;
  Placement spread(2);
  spread.assign(0, 0);
  spread.assign(1, 1);
  Placement packed(2);
  packed.assign(0, 0);
  packed.assign(1, 0);
  s.schedule.assign(s.settings.intervals(), packed);
  s.schedule[3] = spread;
  const auto report = emulate(s.vms, s.schedule, s.settings, true);
  EXPECT_EQ(report.provisioned_hosts, 2u);
  EXPECT_EQ(report.active_hosts_per_interval[3], 2u);
  EXPECT_EQ(report.active_hosts_per_interval[2], 1u);
}

TEST(Emulator, EmptyScheduleIsSafe) {
  TinyScenario s;
  const auto report = emulate(s.vms, {}, s.settings, false);
  EXPECT_EQ(report.provisioned_hosts, 0u);
  EXPECT_DOUBLE_EQ(report.energy_wh, 0.0);
}

TEST(Emulator, SlaExposureCountsVmsOnContendedHosts) {
  TinyScenario s;
  // Host 0 contended all the time (third VM overloads it); host 1 clean.
  s.vms.push_back(constant_vm("c", 0.75 * s.settings.target.cpu_rpe2 + 4096.0,
                              1024.0, 168));
  s.vms.push_back(constant_vm("d", 100.0, 1024.0, 168));
  Placement p(4);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 0);
  p.assign(3, 1);  // on the clean host
  s.schedule[0] = p;
  const auto report = emulate(s.vms, s.schedule, s.settings, false);
  ASSERT_EQ(report.vm_contention_hours.size(), 4u);
  EXPECT_EQ(report.vm_contention_hours[0], s.settings.eval_hours);
  EXPECT_EQ(report.vm_contention_hours[1], s.settings.eval_hours);
  EXPECT_EQ(report.vm_contention_hours[2], s.settings.eval_hours);
  EXPECT_EQ(report.vm_contention_hours[3], 0u);  // clean host unaffected
  EXPECT_EQ(report.total_vm_contention_hours, 3 * s.settings.eval_hours);
}

TEST(Emulator, NoContentionMeansNoSlaExposure) {
  TinyScenario s;
  const auto report = emulate(s.vms, s.schedule, s.settings, false);
  EXPECT_EQ(report.total_vm_contention_hours, 0u);
  for (auto hours : report.vm_contention_hours) EXPECT_EQ(hours, 0u);
}

// The paper validated its emulator against RUBiS/daxpy replay with a 99th
// percentile error below 5%. Our equivalent consistency check: replaying
// VMs one-per-host must reproduce each VM's own demand trace as host
// utilization, exactly.
TEST(Emulator, ReplayAccuracyOnePerHost) {
  const auto vms = small_fleet(30);
  const auto settings = small_settings();
  Placement p(vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i)
    p.assign(i, static_cast<std::int32_t>(i));
  const std::vector<Placement> schedule{p};
  const auto report = emulate(vms, schedule, settings, false);
  ASSERT_EQ(report.host_peak_cpu_util.size(), vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const auto eval = vms[i].cpu_rpe2.slice(settings.eval_begin(),
                                            settings.eval_hours);
    EXPECT_NEAR(report.host_peak_cpu_util[i],
                peak(eval) / settings.target.cpu_rpe2, 1e-9);
    EXPECT_NEAR(report.host_avg_cpu_util[i],
                mean(eval) / settings.target.cpu_rpe2, 1e-9);
  }
}

// Every field of every report, bit for bit: the four presets under the
// study's three schedules, and one ragged case whose traces end inside the
// window, whose placements leave VMs unplaced and disagree with the fleet
// size, on a mixed pool, at interval lengths that do not divide eight hours
// or the window.
TEST(Emulator, PresetReportsArePinned) {
  const StudySettings settings;
  const struct {
    WorkloadSpec spec;
    std::uint64_t semi_static, stochastic, dynamic;
  } presets[] = {
      {banking_spec(),
       5587037717780954303ULL,
       2308740333915491211ULL,
       10899019242541900461ULL},
      {airlines_spec(),
       15494075533425314968ULL,
       4593331174120614469ULL,
       2073952862079011666ULL},
      {natural_resources_spec(),
       5086802596157963655ULL,
       5407375257219751289ULL,
       1371071568929519491ULL},
      {beverage_spec(),
       2665127322770833605ULL,
       10251097199898242291ULL,
       193376675780164362ULL},
  };
  for (const auto& preset : presets) {
    const auto vms = preset_fleet(preset.spec);
    const auto semi = plan_semi_static(vms, settings);
    const auto stochastic = plan_stochastic(vms, settings);
    const auto dynamic = plan_dynamic(vms, settings);
    ASSERT_TRUE(semi && stochastic && dynamic) << preset.spec.name;
    const std::vector<Placement> semi_schedule{semi->placement};
    const std::vector<Placement> stochastic_schedule{stochastic->placement};
    EXPECT_EQ(emulation_hash(emulate(vms, semi_schedule, settings, false)),
              preset.semi_static)
        << preset.spec.name << " semi-static";
    EXPECT_EQ(
        emulation_hash(emulate(vms, stochastic_schedule, settings, false)),
        preset.stochastic)
        << preset.spec.name << " stochastic";
    EXPECT_EQ(
        emulation_hash(emulate(vms, dynamic->per_interval, settings, true)),
        preset.dynamic)
        << preset.spec.name << " dynamic";
  }

  auto vms = small_fleet(40, 7);  // 168 hours
  for (std::size_t i = 0; i < vms.size(); i += 4) {
    const auto cut = [](const TimeSeries& series, std::size_t len) {
      const auto s = series.samples();
      return TimeSeries(std::vector<double>(s.begin(), s.begin() + len));
    };
    vms[i].cpu_rpe2 = cut(vms[i].cpu_rpe2, 125 + i);
    vms[i].mem_mb = cut(vms[i].mem_mb, 150 - i / 2);
  }
  vms[1].mem_mb = TimeSeries();
  const HostPool pool(
      {{hs22_blade(), 3}, {hs23_elite_blade(), HostClass::kUnlimited}});
  // Overloads a small host on its own, in CPU and memory.
  vms.push_back(constant_vm("hot", 1.05 * pool.spec_of(0).cpu_rpe2,
                            1.05 * pool.spec_of(0).memory_mb, 160));

  std::uint64_t ragged = kFnvBasis;
  std::size_t cpu_samples = 0, mem_samples = 0;
  for (const std::size_t interval_hours : {1, 2, 3, 5}) {
    StudySettings s = testing::small_settings();
    s.eval_hours = 45;
    s.interval_hours = interval_hours;
    const std::size_t sizes[] = {vms.size() - 3, vms.size(), vms.size() + 2};
    std::vector<Placement> schedule;
    for (std::size_t k = 0; k + 2 < s.intervals(); ++k) {
      Placement p(sizes[k % 3]);
      for (std::size_t vm = 0; vm < p.vm_count(); ++vm) {
        if ((vm + k) % 6 == 0) continue;
        p.assign(vm, vm < vms.size()
                         ? static_cast<std::int32_t>((vm * 5 + k) % 7)
                         : static_cast<std::int32_t>(7 + k % 2));
      }
      schedule.push_back(std::move(p));
    }
    const std::vector<Placement> fixed{schedule.front()};
    for (const auto& report :
         {emulate(vms, schedule, s, true, pool),
          emulate(vms, schedule, s, false, pool),
          emulate(vms, fixed, s, false, pool)}) {
      ragged = fnv1a(ragged, emulation_hash(report), 8);
      cpu_samples += report.cpu_contention_samples.size();
      mem_samples += report.mem_contention_samples.size();
    }
  }
  EXPECT_GT(cpu_samples, 0u);
  EXPECT_GT(mem_samples, 0u);
  EXPECT_EQ(ragged, 940271422826092233ULL);
}

}  // namespace
}  // namespace vmcw
