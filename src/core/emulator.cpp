#include "core/emulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "runtime/telemetry.h"

namespace vmcw {

EmulationAccumulator::EmulationAccumulator(std::span<const VmWorkload> vms,
                                           const StudySettings& settings,
                                           bool power_off_empty_hosts,
                                           const HostPool& pool,
                                           std::size_t host_bound)
    : vms_(vms),
      power_off_empty_hosts_(power_off_empty_hosts),
      host_bound_(host_bound),
      interval_hours_(settings.interval_hours) {
  report_.eval_hours = settings.eval_hours;
  report_.intervals = settings.intervals();

  // Per-host models from the pool (host 0..host_bound-1).
  power_.reserve(host_bound_);
  cpu_capacity_.resize(host_bound_);
  mem_capacity_.resize(host_bound_);
  for (std::size_t h = 0; h < host_bound_; ++h) {
    const ServerSpec& spec = pool.spec_of(h);
    power_.emplace_back(spec);
    cpu_capacity_[h] = spec.cpu_rpe2;
    mem_capacity_[h] = spec.memory_mb;
  }

  host_util_sum_.assign(host_bound_, 0.0);
  host_active_hours_.assign(host_bound_, 0);
  host_peak_util_.assign(host_bound_, 0.0);
  host_ever_used_.assign(host_bound_, false);

  cpu_demand_.resize(host_bound_);
  mem_demand_.resize(host_bound_);
  host_active_.resize(host_bound_);
  host_contended_.resize(host_bound_);
  report_.vm_contention_hours.assign(vms_.size(), 0);
  report_.active_hosts_per_interval.reserve(report_.intervals);
}

void EmulationAccumulator::rebuild(const Placement& placement) {
  // `placed_` compacts the vm -> host map to the placed VMs so the hourly
  // demand and contention loops touch no unplaced entries and carry no
  // per-VM branch.
  placed_.clear();
  std::fill(host_active_.begin(), host_active_.end(), false);
  active_ = 0;
  const std::size_t vm_bound = std::min(placement.vm_count(), vms_.size());
  for (std::size_t vm = 0; vm < placement.vm_count(); ++vm) {
    if (!placement.is_placed(vm)) continue;
    const auto h = static_cast<std::size_t>(placement.host_of(vm));
    if (vm < vm_bound)
      placed_.emplace_back(static_cast<std::uint32_t>(vm),
                           static_cast<std::uint32_t>(h));
    if (!host_active_[h]) {
      host_active_[h] = true;
      ++active_;
    }
  }
}

void EmulationAccumulator::begin_interval(const Placement& placement,
                                          bool force) {
  if (force || &placement != current_) {
    current_ = &placement;
    rebuild(placement);
  }
  for (std::size_t h = 0; h < host_bound_; ++h)
    if (host_active_[h]) host_ever_used_[h] = true;
  report_.active_hosts_per_interval.push_back(active_);
  report_.provisioned_hosts = std::max(report_.provisioned_hosts, active_);
}

void EmulationAccumulator::update_placement(const Placement& placement) {
  current_ = &placement;
  rebuild(placement);
  for (std::size_t h = 0; h < host_bound_; ++h)
    if (host_active_[h]) host_ever_used_[h] = true;
}

EmulationAccumulator::HourOutcome EmulationAccumulator::step_hour(
    std::size_t hour, const std::vector<bool>* down_hosts,
    std::vector<std::size_t>* vm_down_hours) {
  HourOutcome out;
  std::fill(cpu_demand_.begin(), cpu_demand_.end(), 0.0);
  std::fill(mem_demand_.begin(), mem_demand_.end(), 0.0);
  if (down_hosts == nullptr) {
    for (const auto& [vm, h] : placed_) {
      const ResourceVector d = vms_[vm].demand_at(hour);
      cpu_demand_[h] += d.cpu_rpe2;
      mem_demand_[h] += d.memory_mb;
    }
    vm_hours_ += placed_.size();
  } else {
    for (const auto& [vm, h] : placed_) {
      if ((*down_hosts)[h]) {
        ++out.vms_down;
        if (vm_down_hours != nullptr) ++(*vm_down_hours)[vm];
        continue;
      }
      const ResourceVector d = vms_[vm].demand_at(hour);
      cpu_demand_[h] += d.cpu_rpe2;
      mem_demand_[h] += d.memory_mb;
      ++vm_hours_;
    }
  }

  bool any_contention = false;
  std::fill(host_contended_.begin(), host_contended_.end(), false);
  for (std::size_t h = 0; h < host_bound_; ++h) {
    const bool offline = down_hosts != nullptr && (*down_hosts)[h];
    if (host_active_[h] && !offline) {
      const double util = cpu_demand_[h] / cpu_capacity_[h];
      const double mem_util = mem_demand_[h] / mem_capacity_[h];
      host_util_sum_[h] += util;
      ++host_active_hours_[h];
      host_peak_util_[h] = std::max(host_peak_util_[h], util);
      if (util > 1.0) {
        report_.cpu_contention_samples.push_back(util - 1.0);
        any_contention = true;
        host_contended_[h] = true;
      }
      if (mem_util > 1.0) {
        report_.mem_contention_samples.push_back(mem_util - 1.0);
        any_contention = true;
        host_contended_[h] = true;
      }
      report_.energy_wh += power_[h].watts(util);
    } else if (!offline && !power_off_empty_hosts_ && host_ever_used_[h]) {
      // Static plans keep provisioned-but-idle hosts powered.
      report_.energy_wh += power_[h].watts(0.0);
    }
  }
  if (any_contention) {
    ++report_.hours_with_contention;
    // Every VM sharing a contended host is SLA-exposed for this hour.
    for (const auto& [vm, h] : placed_) {
      if (host_contended_[h]) {
        ++report_.vm_contention_hours[vm];
        ++report_.total_vm_contention_hours;
      }
    }
  }
  out.contention = any_contention;
  return out;
}

EmulationReport EmulationAccumulator::finish() {
  for (std::size_t h = 0; h < host_bound_; ++h) {
    if (!host_ever_used_[h]) continue;
    report_.host_avg_cpu_util.push_back(
        host_active_hours_[h] > 0
            ? host_util_sum_[h] / static_cast<double>(host_active_hours_[h])
            : 0.0);
    report_.host_peak_cpu_util.push_back(host_peak_util_[h]);
  }

  MetricsRegistry::global().add_counter("emulate.runs");
  MetricsRegistry::global().add_counter("emulate.intervals",
                                        report_.intervals);
  MetricsRegistry::global().add_counter("emulate.vm_hours", vm_hours_);
  return std::move(report_);
}

EmulationReport emulate(std::span<const VmWorkload> vms,
                        std::span<const Placement> schedule,
                        const StudySettings& settings,
                        bool power_off_empty_hosts) {
  return emulate(vms, schedule, settings, power_off_empty_hosts,
                 HostPool::uniform(settings.target));
}

EmulationReport emulate(std::span<const VmWorkload> vms,
                        std::span<const Placement> schedule,
                        const StudySettings& settings,
                        bool power_off_empty_hosts, const HostPool& pool) {
  Stopwatch span("emulate.wall_seconds");
  if (schedule.empty() || settings.intervals() == 0) {
    EmulationReport report;
    report.eval_hours = settings.eval_hours;
    report.intervals = settings.intervals();
    return report;
  }

  // Host index space across the whole schedule.
  std::size_t host_bound = 0;
  for (const auto& p : schedule)
    host_bound = std::max(host_bound, p.host_index_bound());

  EmulationAccumulator acc(vms, settings, power_off_empty_hosts, pool,
                           host_bound);
  const std::size_t intervals = settings.intervals();
  for (std::size_t k = 0; k < intervals; ++k) {
    const Placement& placement =
        schedule.size() == 1 ? schedule[0]
                             : schedule[std::min(k, schedule.size() - 1)];
    acc.begin_interval(placement);
    const std::size_t interval_begin =
        settings.eval_begin() + k * settings.interval_hours;
    for (std::size_t dt = 0; dt < settings.interval_hours; ++dt)
      acc.step_hour(interval_begin + dt);
  }
  return acc.finish();
}

}  // namespace vmcw
