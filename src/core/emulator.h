// Trace-replay consolidation emulator.
//
// The paper cannot replay production workloads against competing
// consolidation plans, so it evaluates them in an emulator driven by the
// recorded resource traces (its accuracy was validated against RUBiS/daxpy
// to within 5%/2% at the 99th percentile — we reproduce that experiment as
// an integration test). This emulator does the same job: given the actual
// hourly demand of every VM and a placement schedule, it replays the
// evaluation window and reports, per the paper's Section 5.3 parameters:
//
//   - space/hardware: the provisioning requirement (max active hosts);
//   - power: energy from per-interval active hosts and their utilization;
//   - server utilization: per-host average and peak CPU utilization;
//   - resource contention: demand beyond a host's physical capacity.
//
// Utilization and contention are computed against the host's *full*
// capacity: the migration reservation is a planning constraint, not a
// physical limit, so replayed demand may exceed the bound without
// contention but becomes contention beyond 100%.
//
// Replay is cache-blocked. One demand kernel walks the VMs in ascending
// index over a block of consecutive intervals (8 hours in emulate()) and
// adds each placed VM's CPU and memory samples into a host-major buffer,
// each interval through its own placement. A VM's samples for the block
// are consecutive doubles, one 64-byte line per series, so each VM's
// demand is read once per block rather than once per hour, and a fleet
// larger than L2 is not reloaded hour after hour. The per-host close of
// each hour (utilization, peak, contention, energy, SLA exposure) then
// runs in hour order and host order, as a per-hour walk would.
//
// The blocking changes no output bit. Each (hour, host) sum starts at 0.0
// and adds the same VMs in the same ascending order as a per-hour walk
// over the placed VMs. Hours past the end of a VM's trace add nothing,
// which equals adding 0.0: a sum started at +0.0 is never -0.0, and x +
// 0.0 == x for every other x. So every EmulationReport field, energy_wh
// included, is bit-identical to the per-hour order
// (Emulator.PresetReportsArePinned holds the bits).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/host_pool.h"
#include "core/placement.h"
#include "core/settings.h"
#include "core/vm.h"
#include "hardware/power_model.h"

namespace vmcw {

struct EmulationReport {
  std::size_t eval_hours = 0;
  std::size_t intervals = 0;

  /// Max simultaneously active hosts over the window (the space/hardware
  /// provisioning requirement — "the largest number of servers provisioned
  /// across all consolidation intervals").
  std::size_t provisioned_hosts = 0;

  std::vector<std::size_t> active_hosts_per_interval;

  /// Per active host: average CPU utilization over hours the host ran, and
  /// peak CPU utilization over the window (uncapped; >1 = overload). Hosts
  /// never used do not appear.
  std::vector<double> host_avg_cpu_util;
  std::vector<double> host_peak_cpu_util;

  /// One sample per host-hour with demand above physical capacity, as a
  /// fraction of capacity (Fig 9's contention magnitude).
  std::vector<double> cpu_contention_samples;
  std::vector<double> mem_contention_samples;

  /// Hours (of eval_hours) in which at least one host was contended.
  std::size_t hours_with_contention = 0;

  /// SLA exposure: per-VM count of hours spent on a contended host (the
  /// "higher risk of SLA violations" of Section 7 made countable), and the
  /// fleet total of such VM-hours.
  std::vector<std::size_t> vm_contention_hours;
  std::size_t total_vm_contention_hours = 0;

  double energy_wh = 0;

  double contention_time_fraction() const noexcept {
    return eval_hours > 0 ? static_cast<double>(hours_with_contention) /
                                static_cast<double>(eval_hours)
                          : 0.0;
  }
};

/// Incremental form of the emulator. Demand is replayed in two steps:
///
///  - stage() runs the demand kernel over up to block_intervals()
///    consecutive intervals, each under its own placement;
///  - step_hour() closes one staged hour host by host.
///
/// emulate() stages blocks of max(1, 8 / interval_hours) intervals. The
/// failure-aware replay (src/chaos) stages one interval at a time, because
/// it learns each interval's placement only after executing its
/// migrations, and update_placement() re-stages the rest of an interval
/// after a crash drain. Both drive this class, so the replay's fault-free
/// accounting is exactly the emulator's.
class EmulationAccumulator {
 public:
  /// Hours per staged block (one cache line of doubles per series).
  static constexpr std::size_t kBlockHours = 8;

  /// `host_bound` is 1 + the highest host index any placement will use.
  EmulationAccumulator(std::span<const VmWorkload> vms,
                       const StudySettings& settings,
                       bool power_off_empty_hosts, const HostPool& pool,
                       std::size_t host_bound);

  /// Intervals per staged block: max(1, kBlockHours / interval_hours).
  std::size_t block_intervals() const noexcept { return block_intervals_; }

  /// Stage the demand of consecutive intervals starting at absolute hour
  /// `first_hour`: interval j covers hours [first_hour + j * interval,
  /// first_hour + (j + 1) * interval) under `*placements[j]`. At most
  /// block_intervals() placements; replaces whatever was staged before.
  void stage(std::size_t first_hour,
             std::span<const Placement* const> placements);

  /// Start the next consolidation interval with `placement` in force.
  /// Placement-derived state is rebuilt when the object differs from the
  /// previous call (pointer identity, as in batch replay) or when `force`
  /// is set (for callers that mutate one placement object in place).
  void begin_interval(const Placement& placement, bool force = false);

  /// Swap the in-force placement from absolute hour `hour` on (a crash
  /// evacuation moves VMs between hours): rebuilds placement state
  /// without starting a new interval, so per-interval accounting is
  /// unaffected, and re-stages the staged hours of this interval from
  /// `hour` to its end.
  void update_placement(const Placement& placement, std::size_t hour);

  struct HourOutcome {
    bool contention = false;   ///< some host's demand exceeded capacity
    std::size_t vms_down = 0;  ///< placed VMs whose host is offline
  };

  /// Close one staged absolute trace hour, in hour order, with the
  /// placement it was staged under in force. `down_hosts` (optional) marks
  /// hosts offline this hour: their VMs serve no demand (counted in
  /// vms_down and, when `vm_down_hours` is given, per VM) and the host
  /// neither draws power nor accrues utilization.
  HourOutcome step_hour(std::size_t hour,
                        const std::vector<bool>* down_hosts = nullptr,
                        std::vector<std::size_t>* vm_down_hours = nullptr);

  /// Finalize per-host utilization and telemetry counters. Call once.
  EmulationReport finish();

 private:
  /// Rows [row_begin, row_end) of the staged hours replayed under one
  /// placement.
  struct Segment {
    const Placement* placement = nullptr;
    std::size_t row_begin = 0;
    std::size_t row_end = 0;
  };

  void rebuild(const Placement& placement);
  void add_demand();

  std::span<const VmWorkload> vms_;
  bool power_off_empty_hosts_ = false;
  std::size_t host_bound_ = 0;
  std::size_t interval_hours_ = 0;
  std::size_t block_intervals_ = 1;
  std::size_t block_rows_ = 0;  ///< hours per block; the buffer's row stride

  std::vector<PowerModel> power_;
  std::vector<double> cpu_capacity_;
  std::vector<double> mem_capacity_;

  std::vector<double> host_util_sum_;
  std::vector<std::size_t> host_active_hours_;
  std::vector<double> host_peak_util_;
  std::vector<bool> host_ever_used_;

  /// Staged demand, host-major: host h's hour r is [h * block_rows_ + r],
  /// for the hours [staged_first_hour_, staged_first_hour_ + staged_rows_).
  std::vector<double> cpu_demand_;
  std::vector<double> mem_demand_;
  std::size_t staged_first_hour_ = 0;
  std::size_t staged_rows_ = 0;
  std::vector<Segment> segments_;  ///< what add_demand() adds next

  std::vector<std::uint8_t> host_active_;
  std::vector<std::uint8_t> host_contended_;

  const Placement* current_ = nullptr;
  std::size_t vm_bound_ = 0;  ///< min(current_->vm_count(), vms_.size())
  std::size_t placed_ = 0;    ///< placed VMs below vm_bound_
  std::size_t active_ = 0;
  std::uint64_t vm_hours_ = 0;
  EmulationReport report_;
};

/// Replay `vms` against a placement schedule. `schedule` holds either one
/// placement (fixed for the whole window — semi-static variants) or one per
/// consolidation interval. `power_off_empty_hosts` distinguishes dynamic
/// consolidation (empty hosts are powered down within the interval) from
/// static plans (provisioned hosts idle at idle wattage).
EmulationReport emulate(std::span<const VmWorkload> vms,
                        std::span<const Placement> schedule,
                        const StudySettings& settings,
                        bool power_off_empty_hosts);

/// Heterogeneous-pool variant: utilization, contention and power are
/// evaluated against each host's own spec from `pool` (host indices in the
/// placements must be valid pool indices).
EmulationReport emulate(std::span<const VmWorkload> vms,
                        std::span<const Placement> schedule,
                        const StudySettings& settings,
                        bool power_off_empty_hosts, const HostPool& pool);

}  // namespace vmcw
