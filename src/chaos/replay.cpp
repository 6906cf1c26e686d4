#include "chaos/replay.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>

#include "runtime/telemetry.h"

namespace vmcw {

RobustnessReport replay_under_faults(std::span<const VmWorkload> vms,
                                     std::span<const Placement> schedule,
                                     const StudySettings& settings,
                                     bool power_off_empty_hosts,
                                     const FaultPlan& plan,
                                     const ChaosOptions& options) {
  return replay_under_faults(vms, schedule, settings, power_off_empty_hosts,
                             plan, options, HostPool::uniform(settings.target));
}

RobustnessReport replay_under_faults(std::span<const VmWorkload> vms,
                                     std::span<const Placement> schedule,
                                     const StudySettings& settings,
                                     bool power_off_empty_hosts,
                                     const FaultPlan& plan,
                                     const ChaosOptions& options,
                                     const HostPool& pool) {
  Stopwatch span("chaos.replay_seconds");
  RobustnessReport rob;
  rob.vm_down_hours.assign(vms.size(), 0);
  const std::size_t intervals = settings.intervals();
  if (schedule.empty() || intervals == 0) {
    rob.emulation.eval_hours = settings.eval_hours;
    rob.emulation.intervals = intervals;
    return rob;
  }

  // A plan that injects nothing is a plain emulation, bit-identical to
  // emulate() because it is emulate().
  if (!plan.any()) {
    rob.emulation =
        emulate(vms, schedule, settings, power_off_empty_hosts, pool);
    MetricsRegistry::global().add_counter("chaos.replays");
    return rob;
  }

  std::size_t host_bound = 0;
  for (const auto& p : schedule)
    host_bound = std::max(host_bound, p.host_index_bound());
  EmulationAccumulator acc(vms, settings, power_off_empty_hosts, pool,
                           host_bound);

  const auto& outages = plan.outages();
  // Per outage: did the host carry VMs when it went down? Such hosts count
  // as lost capacity for every hour of their outage.
  std::vector<char> outage_loaded(outages.size(), 0);

  // Correlated incidents: outage records sharing (cause, domain, start)
  // are one physical event. Index them up front so the replay can charge
  // drains, strandings, and recovery time to the incident they belong to.
  constexpr std::size_t kNoIncident = static_cast<std::size_t>(-1);
  std::vector<std::size_t> incident_of(outages.size(), kNoIncident);
  {
    std::map<std::tuple<int, std::int32_t, std::size_t>, std::size_t> ids;
    for (std::size_t i = 0; i < outages.size(); ++i) {
      const HostOutage& o = outages[i];
      if (o.cause == OutageCause::kHost) continue;
      const auto [it, inserted] = ids.emplace(
          std::make_tuple(static_cast<int>(o.cause), o.domain, o.down_from),
          rob.incidents.size());
      if (inserted) {
        IncidentRecord rec;
        rec.cause = o.cause;
        rec.domain = o.domain;
        rec.start_hour = o.down_from;
        rob.incidents.push_back(rec);
      }
      incident_of[i] = it->second;
    }
  }
  std::vector<std::vector<std::size_t>> incident_vms(rob.incidents.size());

  Placement actual = schedule[0];  // the placement actually achieved
  std::size_t last_fresh = 0;      // schedule index of the last fresh plan
  std::vector<bool> down(host_bound, false);
  std::vector<std::uint8_t> down_u8(host_bound, 0);
  std::size_t hosts_down = 0;
  std::size_t loaded_hosts_down = 0;
  const double interval_s =
      static_cast<double>(settings.interval_hours) * 3600.0;
  std::vector<char> hour_bad(settings.eval_hours, 0);
  bool dirty = true;  // `actual` mutated since the accumulator last saw it

  for (std::size_t k = 0; k < intervals; ++k) {
    const std::size_t hour0 =
        settings.eval_begin() + k * settings.interval_hours;

    // Degraded-mode planning: with stale telemetry the planner cannot
    // justify a new placement, so the executor re-applies the last plan
    // computed from fresh data instead of chasing one built on data it
    // does not have.
    std::size_t target_idx = std::min(k, schedule.size() - 1);
    if (k > 0 && plan.monitoring_stale(k)) {
      ++rob.stale_intervals;
      target_idx = last_fresh;
    } else {
      last_fresh = target_idx;
    }
    const Placement& target = schedule[target_idx];

    // Execute this interval's migrations from the achieved placement
    // toward the plan (interval 0 is the initial deployment). Jobs whose
    // source or destination is down, and jobs the scheduler could not
    // complete inside the interval, are deferred: the diff against next
    // interval's plan recomputes them.
    if (k > 0) {
      const auto jobs =
          migration_jobs(actual, target, vms, hour0, options.migration);
      std::vector<MigrationJob> runnable;
      runnable.reserve(jobs.size());
      for (const auto& job : jobs) {
        const auto from = static_cast<std::size_t>(job.from);
        const auto to = static_cast<std::size_t>(job.to);
        if ((from < down.size() && down[from]) ||
            (to < down.size() && down[to])) {
          ++rob.migrations_deferred;
          continue;
        }
        runnable.push_back(job);
      }
      if (!runnable.empty()) {
        MigrationFaults faults;
        faults.policy = options.retry;
        faults.deadline_s = interval_s;
        faults.attempt_fails = [&](std::size_t j, int attempt) {
          return plan.migration_attempt_fails(runnable[j].vm, k, attempt);
        };
        faults.slowdown = [&](std::size_t j) {
          return plan.migration_slowdown(runnable[j].vm, k);
        };
        const auto outcome = schedule_migrations(
            runnable, options.per_host_migration_limit, faults);
        rob.migration_attempts += outcome.total_attempts;
        rob.failed_migration_attempts += outcome.failed_attempts;
        rob.migration_retries += outcome.retries;
        rob.migrations_deferred += outcome.abandoned;
        for (std::size_t j = 0; j < runnable.size(); ++j) {
          if (!outcome.jobs[j].completed) continue;
          actual.assign(runnable[j].vm, runnable[j].to);
          ++rob.migrations_completed;
          dirty = true;
        }
      }
    }

    acc.begin_interval(actual, dirty);
    dirty = false;
    // One interval at a time: the next placement is known only once its
    // migrations have run. A crash drain re-stages the rest of it.
    const Placement* const in_force[] = {&actual};
    acc.stage(hour0, in_force);

    for (std::size_t dt = 0; dt < settings.interval_hours; ++dt) {
      const std::size_t hour = hour0 + dt;

      // Reboots first: up_at == hour means the host serves this hour.
      for (std::size_t i = 0; i < outages.size(); ++i) {
        const HostOutage& o = outages[i];
        if (o.up_at != hour || o.host >= host_bound || !down[o.host]) continue;
        down[o.host] = false;
        down_u8[o.host] = 0;
        --hosts_down;
        if (outage_loaded[i] != 0) {
          --loaded_hosts_down;
          outage_loaded[i] = 0;
        }
      }
      // Pre-mark correlated crashes landing this hour: a drain run for any
      // host going down now must not pick as target a sibling that the
      // same incident is about to take with it. Independent crashes keep
      // their original semantics (only already-down hosts are excluded).
      for (const HostOutage& o : outages) {
        if (o.cause == OutageCause::kHost) continue;
        if (o.down_from == hour && o.up_at > hour && o.host < host_bound &&
            !down[o.host])
          down_u8[o.host] = 1;
      }
      // Crashes hitting this hour.
      for (std::size_t i = 0; i < outages.size(); ++i) {
        const HostOutage& o = outages[i];
        if (o.down_from != hour || o.up_at <= hour || o.host >= host_bound ||
            down[o.host])
          continue;
        down[o.host] = true;
        down_u8[o.host] = 1;
        ++hosts_down;
        ++rob.host_crashes;
        std::vector<std::size_t> on_host;
        for (std::size_t vm = 0; vm < actual.vm_count(); ++vm)
          if (actual.is_placed(vm) &&
              actual.host_of(vm) == static_cast<std::int32_t>(o.host))
            on_host.push_back(vm);
        const std::size_t inc = incident_of[i];
        if (inc != kNoIncident) {
          IncidentRecord& rec = rob.incidents[inc];
          ++rec.hosts_lost;
          rec.vms_affected += on_host.size();
          incident_vms[inc].insert(incident_vms[inc].end(), on_host.begin(),
                                   on_host.end());
        }
        if (on_host.empty()) continue;
        outage_loaded[i] = 1;
        ++loaded_hosts_down;
        // HA drain onto surviving hosts (other down hosts excluded as
        // targets); when nothing fits, the VMs ride the host down.
        EvacuationOptions evac = options.evacuation;
        evac.unavailable_hosts = down_u8;
        auto drain = plan_evacuation(actual, static_cast<std::int32_t>(o.host),
                                     vms, hour, pool, evac);
        if (drain.has_value()) {
          ++rob.evacuations;
          rob.migrations_completed += drain->jobs.size();
          if (inc != kNoIncident) {
            rob.incidents[inc].recovery_hours =
                std::max(rob.incidents[inc].recovery_hours,
                         drain->schedule.makespan_s / 3600.0);
          }
          actual = std::move(drain->after);
          acc.update_placement(actual, hour);
        } else {
          ++rob.failed_evacuations;
          if (inc != kNoIncident) {
            IncidentRecord& rec = rob.incidents[inc];
            rec.vms_stranded += on_host.size();
            rec.recovery_hours =
                std::max(rec.recovery_hours,
                         static_cast<double>(o.up_at - o.down_from));
          }
        }
      }

      rob.capacity_lost_host_hours += static_cast<double>(loaded_hosts_down);
      const auto out =
          acc.step_hour(hour, hosts_down > 0 ? &down : nullptr,
                        &rob.vm_down_hours);
      rob.vm_downtime_hours += out.vms_down;
      rob.max_vms_down_simultaneously =
          std::max(rob.max_vms_down_simultaneously, out.vms_down);
      if (out.contention || out.vms_down > 0)
        hour_bad[hour - settings.eval_begin()] = 1;
    }
  }

  rob.emulation = acc.finish();

  // Per-incident blast radius: the share of each application's replicas
  // inside one incident's footprint. Applications of one VM are excluded
  // (their share is trivially total).
  if (!rob.incidents.empty()) {
    // app_size is lookup-only; hit is folded over below, so it must have a
    // deterministic iteration order.
    std::unordered_map<std::string, std::size_t> app_size;
    for (const auto& vm : vms)
      if (!vm.app.empty()) ++app_size[vm.app];
    for (std::size_t inc = 0; inc < rob.incidents.size(); ++inc) {
      std::map<std::string, std::size_t> hit;
      for (const std::size_t vm : incident_vms[inc])
        if (!vms[vm].app.empty()) ++hit[vms[vm].app];
      double worst = 0;
      for (const auto& [app, count] : hit) {
        const std::size_t total = app_size[app];
        if (total < 2) continue;
        worst = std::max(worst, static_cast<double>(count) /
                                    static_cast<double>(total));
      }
      rob.incidents[inc].max_app_blast_fraction = worst;
      rob.worst_incident_recovery_hours = std::max(
          rob.worst_incident_recovery_hours, rob.incidents[inc].recovery_hours);
      rob.max_app_blast_radius = std::max(rob.max_app_blast_radius, worst);
    }
    std::sort(rob.incidents.begin(), rob.incidents.end(),
              [](const IncidentRecord& a, const IncidentRecord& b) {
                return std::make_tuple(a.start_hour,
                                       static_cast<int>(a.cause), a.domain) <
                       std::make_tuple(b.start_hour,
                                       static_cast<int>(b.cause), b.domain);
              });
  }

  // Merge flagged hours into maximal [from, to) absolute-hour ranges.
  const std::size_t base = settings.eval_begin();
  for (std::size_t h = 0; h < hour_bad.size(); ++h) {
    if (hour_bad[h] == 0) continue;
    std::size_t end = h + 1;
    while (end < hour_bad.size() && hour_bad[end] != 0) ++end;
    rob.sla_violation_intervals.emplace_back(base + h, base + end);
    h = end;
  }

  auto& metrics = MetricsRegistry::global();
  metrics.add_counter("chaos.replays");
  metrics.add_counter("chaos.host_crashes", rob.host_crashes);
  metrics.add_counter("chaos.evacuations", rob.evacuations);
  metrics.add_counter("chaos.failed_evacuations", rob.failed_evacuations);
  metrics.add_counter("chaos.migration_attempts", rob.migration_attempts);
  metrics.add_counter("chaos.migration_failed_attempts",
                      rob.failed_migration_attempts);
  metrics.add_counter("chaos.migration_retries", rob.migration_retries);
  metrics.add_counter("chaos.migrations_deferred", rob.migrations_deferred);
  metrics.add_counter("chaos.stale_intervals", rob.stale_intervals);
  metrics.add_counter("chaos.vm_downtime_hours", rob.vm_downtime_hours);
  metrics.add_counter("chaos.incidents", rob.incidents.size());
  return rob;
}

}  // namespace vmcw
