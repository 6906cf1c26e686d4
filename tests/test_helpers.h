// Shared fixtures for planner/emulator tests: small deterministic fleets.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/emulator.h"
#include "core/placement.h"
#include "core/settings.h"
#include "core/vm.h"
#include "trace/generator.h"
#include "trace/presets.h"

namespace vmcw::testing {

/// Settings scaled to short traces: 5 days of history, 2 days of
/// evaluation, 2-hour intervals (24 intervals).
inline StudySettings small_settings() {
  StudySettings s;
  s.history_hours = 120;
  s.eval_hours = 48;
  s.interval_hours = 2;
  return s;
}

/// A small generated fleet with the Banking character (bursty CPU).
inline std::vector<VmWorkload> small_fleet(int servers = 60,
                                           std::uint64_t seed = 42) {
  const auto spec = scaled_down(banking_spec(), servers, 168);
  return to_vm_workloads(generate_datacenter(spec, seed));
}

/// One VM with constant demand.
inline VmWorkload constant_vm(const std::string& id, double cpu_rpe2,
                              double mem_mb, std::size_t hours) {
  VmWorkload vm;
  vm.id = id;
  vm.cpu_rpe2 = TimeSeries(std::vector<double>(hours, cpu_rpe2));
  vm.mem_mb = TimeSeries(std::vector<double>(hours, mem_mb));
  return vm;
}

// FNV-1a over little-endian integers: pins whole placements and schedules
// in one number.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (value >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/// FNV-1a of every VM's host, placement by placement.
inline std::uint64_t schedule_hash(const std::vector<Placement>& per_interval) {
  std::uint64_t h = kFnvBasis;
  for (const auto& p : per_interval)
    for (std::size_t vm = 0; vm < p.vm_count(); ++vm)
      h = fnv1a(h, static_cast<std::uint32_t>(p.host_of(vm)), 4);
  return h;
}

/// FNV-1a of every EmulationReport field, doubles taken as their bits and
/// vectors prefixed by their length.
inline std::uint64_t emulation_hash(const EmulationReport& r) {
  std::uint64_t h = kFnvBasis;
  const auto count = [&h](std::size_t n) { h = fnv1a(h, n, 8); };
  const auto bits = [&h](double x) {
    h = fnv1a(h, std::bit_cast<std::uint64_t>(x), 8);
  };
  count(r.eval_hours);
  count(r.intervals);
  count(r.provisioned_hosts);
  count(r.active_hosts_per_interval.size());
  for (const std::size_t n : r.active_hosts_per_interval) count(n);
  for (const auto* series :
       {&r.host_avg_cpu_util, &r.host_peak_cpu_util, &r.cpu_contention_samples,
        &r.mem_contention_samples}) {
    count(series->size());
    for (const double x : *series) bits(x);
  }
  count(r.hours_with_contention);
  count(r.vm_contention_hours.size());
  for (const std::size_t n : r.vm_contention_hours) count(n);
  count(r.total_vm_contention_hours);
  bits(r.energy_wh);
  return h;
}

/// A Table-2 preset scaled to 120 servers over one month, at kStudySeed.
inline std::vector<VmWorkload> preset_fleet(WorkloadSpec spec) {
  return to_vm_workloads(generate_datacenter(
      scaled_down(std::move(spec), 120, kHoursPerMonth), kStudySeed));
}

}  // namespace vmcw::testing
