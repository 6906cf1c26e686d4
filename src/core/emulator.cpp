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
      interval_hours_(settings.interval_hours),
      block_intervals_(std::max<std::size_t>(
          1, kBlockHours / std::max<std::size_t>(1, settings.interval_hours))),
      block_rows_(block_intervals_ * settings.interval_hours) {
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

  cpu_demand_.resize(host_bound_ * block_rows_);
  mem_demand_.resize(host_bound_ * block_rows_);
  host_active_.resize(host_bound_);
  host_contended_.resize(host_bound_);
  report_.vm_contention_hours.assign(vms_.size(), 0);
  report_.active_hosts_per_interval.reserve(report_.intervals);
}

void EmulationAccumulator::rebuild(const Placement& placement) {
  std::fill(host_active_.begin(), host_active_.end(), 0);
  placed_ = 0;
  vm_bound_ = std::min(placement.vm_count(), vms_.size());
  for (std::size_t vm = 0; vm < placement.vm_count(); ++vm) {
    if (!placement.is_placed(vm)) continue;
    if (vm < vm_bound_) ++placed_;
    host_active_[static_cast<std::size_t>(placement.host_of(vm))] = 1;
  }
  active_ = static_cast<std::size_t>(
      std::count(host_active_.begin(), host_active_.end(), 1));
}

void EmulationAccumulator::stage(
    std::size_t first_hour, std::span<const Placement* const> placements) {
  assert(placements.size() <= block_intervals_);
  staged_first_hour_ = first_hour;
  staged_rows_ = placements.size() * interval_hours_;
  // Consecutive intervals under one placement object are one segment.
  segments_.clear();
  for (std::size_t j = 0; j < placements.size(); ++j) {
    if (!segments_.empty() && segments_.back().placement == placements[j])
      segments_.back().row_end += interval_hours_;
    else
      segments_.push_back(
          {placements[j], j * interval_hours_, (j + 1) * interval_hours_});
  }
  std::fill(cpu_demand_.begin(), cpu_demand_.end(), 0.0);
  std::fill(mem_demand_.begin(), mem_demand_.end(), 0.0);
  add_demand();
}

// The one demand kernel: every VM, in ascending index, adds its CPU and
// memory samples for each segment's rows to its host's rows under that
// segment's placement. Rows past the end of a VM's trace add nothing.
void EmulationAccumulator::add_demand() {
  const std::size_t first = staged_first_hour_;
  // Each VM's series is its own allocation, so no hardware stream covers
  // the next VM's lines: ask a few VMs ahead for the staged hours' first
  // and last samples (an 8-hour block usually straddles two lines).
  constexpr std::size_t kPrefetchAhead = 8;
  const std::size_t last = first + staged_rows_ - 1;
  const auto prefetch = [&](std::span<const double> samples) {
    if (first < samples.size()) __builtin_prefetch(samples.data() + first);
    if (last < samples.size()) __builtin_prefetch(samples.data() + last);
  };
  for (std::size_t vm = 0; vm < vms_.size(); ++vm) {
    if (vm + kPrefetchAhead < vms_.size()) {
      prefetch(vms_[vm + kPrefetchAhead].cpu_rpe2.samples());
      prefetch(vms_[vm + kPrefetchAhead].mem_mb.samples());
    }
    const auto cpu = vms_[vm].cpu_rpe2.samples();
    const auto mem = vms_[vm].mem_mb.samples();
    const std::size_t cpu_rows = cpu.size() > first ? cpu.size() - first : 0;
    const std::size_t mem_rows = mem.size() > first ? mem.size() - first : 0;
    for (const Segment& seg : segments_) {
      const Placement& placement = *seg.placement;
      if (vm >= placement.vm_count() || !placement.is_placed(vm)) continue;
      const auto h = static_cast<std::size_t>(placement.host_of(vm));
      double* host_cpu = cpu_demand_.data() + h * block_rows_;
      double* host_mem = mem_demand_.data() + h * block_rows_;
      for (std::size_t r = seg.row_begin; r < std::min(seg.row_end, cpu_rows);
           ++r)
        host_cpu[r] += cpu[first + r];
      for (std::size_t r = seg.row_begin; r < std::min(seg.row_end, mem_rows);
           ++r)
        host_mem[r] += mem[first + r];
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
    if (host_active_[h] != 0) host_ever_used_[h] = true;
  report_.active_hosts_per_interval.push_back(active_);
  report_.provisioned_hosts = std::max(report_.provisioned_hosts, active_);
}

void EmulationAccumulator::update_placement(const Placement& placement,
                                            std::size_t hour) {
  current_ = &placement;
  rebuild(placement);
  for (std::size_t h = 0; h < host_bound_; ++h)
    if (host_active_[h] != 0) host_ever_used_[h] = true;
  // Re-stage this interval's rows from `hour` on under the new placement.
  assert(hour >= staged_first_hour_ &&
         hour < staged_first_hour_ + staged_rows_);
  const std::size_t row_begin = hour - staged_first_hour_;
  const std::size_t row_end =
      (row_begin / interval_hours_ + 1) * interval_hours_;
  for (std::size_t h = 0; h < host_bound_; ++h) {
    std::fill_n(cpu_demand_.data() + h * block_rows_ + row_begin,
                row_end - row_begin, 0.0);
    std::fill_n(mem_demand_.data() + h * block_rows_ + row_begin,
                row_end - row_begin, 0.0);
  }
  segments_.assign(1, {&placement, row_begin, row_end});
  add_demand();
}

EmulationAccumulator::HourOutcome EmulationAccumulator::step_hour(
    std::size_t hour, const std::vector<bool>* down_hosts,
    std::vector<std::size_t>* vm_down_hours) {
  assert(hour >= staged_first_hour_ &&
         hour < staged_first_hour_ + staged_rows_);
  const std::size_t row = hour - staged_first_hour_;
  const Placement& placement = *current_;
  HourOutcome out;
  if (down_hosts != nullptr) {
    // Staged demand still counts VMs on offline hosts; those hosts are
    // skipped below, so only the per-VM downtime needs this pass.
    for (std::size_t vm = 0; vm < vm_bound_; ++vm) {
      if (!placement.is_placed(vm) ||
          !(*down_hosts)[static_cast<std::size_t>(placement.host_of(vm))])
        continue;
      ++out.vms_down;
      if (vm_down_hours != nullptr) ++(*vm_down_hours)[vm];
    }
  }
  vm_hours_ += placed_ - out.vms_down;

  bool any_contention = false;
  std::fill(host_contended_.begin(), host_contended_.end(), 0);
  for (std::size_t h = 0; h < host_bound_; ++h) {
    const bool offline = down_hosts != nullptr && (*down_hosts)[h];
    if (host_active_[h] != 0 && !offline) {
      const double util = cpu_demand_[h * block_rows_ + row] / cpu_capacity_[h];
      const double mem_util =
          mem_demand_[h * block_rows_ + row] / mem_capacity_[h];
      host_util_sum_[h] += util;
      ++host_active_hours_[h];
      host_peak_util_[h] = std::max(host_peak_util_[h], util);
      if (util > 1.0) {
        report_.cpu_contention_samples.push_back(util - 1.0);
        any_contention = true;
        host_contended_[h] = 1;
      }
      if (mem_util > 1.0) {
        report_.mem_contention_samples.push_back(mem_util - 1.0);
        any_contention = true;
        host_contended_[h] = 1;
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
    for (std::size_t vm = 0; vm < vm_bound_; ++vm) {
      if (placement.is_placed(vm) &&
          host_contended_[static_cast<std::size_t>(placement.host_of(vm))] !=
              0) {
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
  std::vector<const Placement*> block;
  for (std::size_t k0 = 0; k0 < intervals; k0 += acc.block_intervals()) {
    block.clear();
    for (std::size_t k = k0;
         k < std::min(intervals, k0 + acc.block_intervals()); ++k)
      block.push_back(&schedule[std::min(k, schedule.size() - 1)]);
    const std::size_t block_begin =
        settings.eval_begin() + k0 * settings.interval_hours;
    acc.stage(block_begin, block);
    std::size_t hour = block_begin;
    for (const Placement* placement : block) {
      acc.begin_interval(*placement);
      for (std::size_t dt = 0; dt < settings.interval_hours; ++dt)
        acc.step_hour(hour++);
    }
  }
  return acc.finish();
}

}  // namespace vmcw
