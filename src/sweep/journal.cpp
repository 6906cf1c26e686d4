#include "sweep/journal.h"

#include <map>
#include <stdexcept>
#include <utility>

#include "runtime/wire.h"

namespace vmcw {

namespace {

using wire::ByteReader;
using wire::ByteWriter;
using wire::fnv1a64;

constexpr char kMagic[8] = {'V', 'M', 'C', 'W', 'J', 'N', 'L', '1'};
constexpr std::uint32_t kVersion = 2;

constexpr std::uint8_t kResultRecord = 1;

// ----------------------------------------------------- result records ----

void put_report(ByteWriter& w, const EmulationReport& r) {
  w.u64(r.eval_hours);
  w.u64(r.intervals);
  w.u64(r.provisioned_hosts);
  w.vec_u64(r.active_hosts_per_interval);
  w.vec_f64(r.host_avg_cpu_util);
  w.vec_f64(r.host_peak_cpu_util);
  w.vec_f64(r.cpu_contention_samples);
  w.vec_f64(r.mem_contention_samples);
  w.u64(r.hours_with_contention);
  w.vec_u64(r.vm_contention_hours);
  w.u64(r.total_vm_contention_hours);
  w.f64(r.energy_wh);
}

EmulationReport get_report(ByteReader& r) {
  EmulationReport rep;
  rep.eval_hours = r.u64();
  rep.intervals = r.u64();
  rep.provisioned_hosts = r.u64();
  rep.active_hosts_per_interval = r.vec_u64();
  rep.host_avg_cpu_util = r.vec_f64();
  rep.host_peak_cpu_util = r.vec_f64();
  rep.cpu_contention_samples = r.vec_f64();
  rep.mem_contention_samples = r.vec_f64();
  rep.hours_with_contention = r.u64();
  rep.vm_contention_hours = r.vec_u64();
  rep.total_vm_contention_hours = r.u64();
  rep.energy_wh = r.f64();
  return rep;
}

void put_robustness(ByteWriter& w, const RobustnessReport& r) {
  put_report(w, r.emulation);
  w.u64(r.host_crashes);
  w.f64(r.capacity_lost_host_hours);
  w.u64(r.stale_intervals);
  w.u64(r.migration_attempts);
  w.u64(r.failed_migration_attempts);
  w.u64(r.migration_retries);
  w.u64(r.migrations_completed);
  w.u64(r.migrations_deferred);
  w.u64(r.evacuations);
  w.u64(r.failed_evacuations);
  w.u64(r.vm_downtime_hours);
  w.vec_u64(r.vm_down_hours);
  w.u64(r.max_vms_down_simultaneously);
  w.u64(r.incidents.size());
  for (const IncidentRecord& inc : r.incidents) {
    w.u8(static_cast<std::uint8_t>(inc.cause));
    w.i32(inc.domain);
    w.u64(inc.start_hour);
    w.u64(inc.hosts_lost);
    w.u64(inc.vms_affected);
    w.u64(inc.vms_stranded);
    w.f64(inc.recovery_hours);
    w.f64(inc.max_app_blast_fraction);
  }
  w.u64(0);  // reserved
  w.f64(r.worst_incident_recovery_hours);
  w.f64(r.max_app_blast_radius);
  w.u64(r.sla_violation_intervals.size());
  for (const auto& [from, to] : r.sla_violation_intervals) {
    w.u64(from);
    w.u64(to);
  }
}

RobustnessReport get_robustness(ByteReader& r) {
  RobustnessReport rob;
  rob.emulation = get_report(r);
  rob.host_crashes = r.u64();
  rob.capacity_lost_host_hours = r.f64();
  rob.stale_intervals = r.u64();
  rob.migration_attempts = r.u64();
  rob.failed_migration_attempts = r.u64();
  rob.migration_retries = r.u64();
  rob.migrations_completed = r.u64();
  rob.migrations_deferred = r.u64();
  rob.evacuations = r.u64();
  rob.failed_evacuations = r.u64();
  rob.vm_downtime_hours = r.u64();
  rob.vm_down_hours = r.vec_u64();
  rob.max_vms_down_simultaneously = r.u64();
  const std::uint64_t incidents = r.u64();
  rob.incidents.reserve(incidents);
  for (std::uint64_t i = 0; i < incidents; ++i) {
    IncidentRecord inc;
    inc.cause = static_cast<OutageCause>(r.u8());
    inc.domain = r.i32();
    inc.start_hour = r.u64();
    inc.hosts_lost = r.u64();
    inc.vms_affected = r.u64();
    inc.vms_stranded = r.u64();
    inc.recovery_hours = r.f64();
    inc.max_app_blast_fraction = r.f64();
    rob.incidents.push_back(inc);
  }
  (void)r.u64();  // reserved
  rob.worst_incident_recovery_hours = r.f64();
  rob.max_app_blast_radius = r.f64();
  const std::uint64_t slas = r.u64();
  rob.sla_violation_intervals.reserve(slas);
  for (std::uint64_t i = 0; i < slas; ++i) {
    const std::size_t from = r.u64();
    const std::size_t to = r.u64();
    rob.sla_violation_intervals.emplace_back(from, to);
  }
  return rob;
}

std::vector<std::uint8_t> encode_result(const SweepCellResult& result) {
  ByteWriter w;
  w.u64(result.index);
  w.str(result.workload);
  w.u8(static_cast<std::uint8_t>(result.strategy));
  w.u64(result.seed);
  w.u8(result.planned ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(result.status));
  w.str(result.error);
  w.u64(result.provisioned_hosts);
  w.u64(result.total_migrations);
  put_report(w, result.report);
  put_robustness(w, result.robustness);
  w.f64(result.wall_seconds);
  return w.bytes();
}

SweepCellResult decode_result(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  SweepCellResult result;
  result.index = r.u64();
  result.workload = r.str();
  result.strategy = static_cast<Strategy>(r.u8());
  result.seed = r.u64();
  result.planned = r.u8() != 0;
  result.status = static_cast<CellStatus>(r.u8());
  result.error = r.str();
  result.provisioned_hosts = r.u64();
  result.total_migrations = r.u64();
  result.report = get_report(r);
  result.robustness = get_robustness(r);
  result.wall_seconds = r.f64();
  if (!r.exhausted()) throw std::runtime_error("journal: trailing bytes");
  return result;
}

// -------------------------------------------------------- grid hashing ----

void hash_spec(ByteWriter& w, const CpuClassParams& p) {
  w.f64(p.diurnal_peak_mult);
  w.f64(p.diurnal_dispersion);
  w.i32(p.business_start_hour);
  w.i32(p.business_end_hour);
  w.f64(p.phase_jitter_hours);
  w.f64(p.weekend_factor);
  w.f64(p.month_end_boost);
  w.f64(p.batch_intensity);
  w.i32(p.batch_start_hour);
  w.i32(p.batch_duration_hours);
  w.f64(p.batch_off_level);
  w.i32(p.batch_start_jitter_hours);
  w.f64(p.bursts_per_day);
  w.f64(p.burst_rate_dispersion);
  w.f64(p.burst_alpha);
  w.f64(p.burst_cap_mult);
  w.f64(p.burst_mean_duration_hours);
  w.f64(p.ar1_rho);
  w.f64(p.ar1_sigma);
  w.f64(p.ar1_sigma_dispersion);
}

void hash_spec(ByteWriter& w, const MemClassParams& p) {
  w.f64(p.base_fraction_mean);
  w.f64(p.base_fraction_sigma);
  w.f64(p.coupled_fraction);
  w.f64(p.coupled_fraction_sigma);
  w.f64(p.linear_coupling_probability);
  w.f64(p.linear_coupled_fraction);
  w.f64(p.ar1_rho);
  w.f64(p.ar1_sigma);
}

void hash_spec(ByteWriter& w, const ServerSpec& s) {
  w.str(s.model);
  w.f64(s.cpu_rpe2);
  w.f64(s.memory_mb);
  w.f64(s.idle_watts);
  w.f64(s.peak_watts);
  w.f64(s.rack_units);
  w.f64(s.hardware_cost);
}

void hash_spec(ByteWriter& w, const MigrationConfig& m) {
  w.f64(m.vm_memory_mb);
  w.f64(m.dirty_rate_mbps);
  w.f64(m.writable_working_set_mb);
  w.f64(m.link_bandwidth_mbps);
  w.f64(m.downtime_target_ms);
  w.i32(m.max_rounds);
  w.f64(m.migration_cpu_fraction);
  w.f64(m.host_cpu_utilization);
  w.f64(m.host_mem_utilization);
}

void hash_cell(ByteWriter& w, const SweepCell& cell) {
  const WorkloadSpec& spec = cell.spec;
  w.str(spec.name);
  w.str(spec.industry);
  w.i32(spec.num_servers);
  w.u64(spec.hours);
  w.f64(spec.target_avg_cpu_util);
  w.f64(spec.util_dispersion_cov);
  w.f64(spec.util_ceiling_mean);
  w.f64(spec.util_ceiling_sigma);
  w.f64(spec.web_fraction);
  w.f64(spec.app_size_mean);
  w.f64(spec.shared_burst_fraction);
  w.f64(spec.app_phase_jitter_hours);
  w.f64(spec.fleet_burst_per_day);
  w.f64(spec.fleet_burst_alpha);
  w.f64(spec.fleet_burst_cap_mult);
  w.f64(spec.fleet_burst_mean_duration_hours);
  w.u64(spec.server_mix.weights.size());
  for (const double weight : spec.server_mix.weights) w.f64(weight);
  hash_spec(w, spec.web_cpu);
  hash_spec(w, spec.batch_cpu);
  hash_spec(w, spec.web_mem);
  hash_spec(w, spec.batch_mem);

  const StudySettings& s = cell.settings;
  hash_spec(w, s.target);
  w.u64(s.history_hours);
  w.u64(s.eval_hours);
  w.u64(s.interval_hours);
  w.f64(s.dynamic_utilization_bound);
  w.f64(s.static_utilization_bound);
  w.f64(s.body_percentile);
  w.f64(s.cluster_similarity);
  w.f64(s.stochastic_memory_percentile);
  w.i32(s.predictor.lookback_days);
  w.f64(s.predictor.cpu_safety_margin);
  w.f64(s.predictor.mem_safety_margin);
  w.u8(s.domains.spread ? 1 : 0);
  w.u64(s.domains.spread_k);
  w.u64(s.domains.hosts_per_rack);
  w.u64(s.domains.racks_per_power_domain);

  w.u8(static_cast<std::uint8_t>(cell.strategy));
  w.u64(cell.seed);

  const FaultSpec& f = cell.faults;
  w.f64(f.host_crashes_per_month);
  w.u64(f.reboot_hours_min);
  w.u64(f.reboot_hours_max);
  w.f64(f.migration_failure_rate);
  w.f64(f.migration_slowdown_rate);
  w.f64(f.migration_slowdown_max);
  w.f64(f.monitoring_gap_rate);
  w.u64(f.monitoring_gap_max_intervals);
  w.f64(f.rack_outages_per_month);
  w.f64(f.power_domain_outages_per_month);
  w.u64(f.domain_outage_hours_min);
  w.u64(f.domain_outage_hours_max);

  const ChaosOptions& c = cell.chaos;
  w.i32(c.retry.max_attempts);
  w.f64(c.retry.backoff_base_s);
  w.f64(c.retry.backoff_cap_s);
  w.i32(c.per_host_migration_limit);
  hash_spec(w, c.migration);
  w.f64(c.evacuation.destination_bound);
  w.i32(c.evacuation.per_host_migration_limit);
  hash_spec(w, c.evacuation.migration);
  w.u64(c.evacuation.unavailable_hosts.size());
  for (const std::uint8_t h : c.evacuation.unavailable_hosts) w.u8(h);
}

}  // namespace

std::uint64_t sweep_grid_hash(std::span<const SweepCell> cells) {
  ByteWriter w;
  w.u64(cells.size());
  for (const SweepCell& cell : cells) hash_cell(w, cell);
  return fnv1a64(w.bytes().data(), w.bytes().size());
}

SweepJournal::Recovery SweepJournal::open(const std::string& path,
                                          std::uint64_t grid_hash,
                                          std::size_t cell_count,
                                          bool resume) {
  std::map<std::size_t, SweepCellResult> outcomes;
  const auto decode = [&](std::uint8_t, const std::uint8_t* payload,
                          std::size_t size) {
    SweepCellResult result = decode_result(payload, size);
    if (result.index >= cell_count)
      throw std::runtime_error("journal: index out of grid");
    outcomes[result.index] = std::move(result);
  };
  const RecordLog::Opened opened =
      log_.open(path, RecordHeader{kMagic, kVersion, 2, {grid_hash, cell_count}},
                resume, RecordKinds{kResultRecord, kResultRecord}, decode);

  Recovery rec;
  rec.stale = opened.stale;
  rec.torn_tail = opened.torn_tail;
  rec.bytes_discarded = opened.bytes_discarded;
  if (!opened.recovered) return rec;
  for (auto& [index, result] : outcomes)
    rec.results.push_back(std::move(result));
  return rec;
}

bool SweepJournal::append_result(const SweepCellResult& result) {
  return log_.append(encode_record(kResultRecord, encode_result(result)),
                     /*sync=*/true);
}

}  // namespace vmcw
