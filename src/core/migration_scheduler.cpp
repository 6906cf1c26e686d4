#include "core/migration_scheduler.h"

#include <algorithm>
#include <map>
#include <queue>

namespace vmcw {

std::vector<MigrationJob> migration_jobs(const Placement& prev,
                                         const Placement& next,
                                         std::span<const VmWorkload> vms,
                                         std::size_t hour,
                                         const MigrationConfig& base) {
  std::vector<MigrationJob> jobs;
  const std::size_t n = std::min({prev.vm_count(), next.vm_count(),
                                  vms.size()});
  for (std::size_t vm = 0; vm < n; ++vm) {
    if (!prev.is_placed(vm) || !next.is_placed(vm)) continue;
    if (prev.host_of(vm) == next.host_of(vm)) continue;
    MigrationJob job;
    job.vm = vm;
    job.from = prev.host_of(vm);
    job.to = next.host_of(vm);
    MigrationConfig config = base;
    config.vm_memory_mb = std::max(vms[vm].demand_at(hour).memory_mb, 64.0);
    // Scale the writable working set with the footprint, capped by it.
    config.writable_working_set_mb =
        std::min(config.writable_working_set_mb, config.vm_memory_mb);
    job.duration_s = simulate_precopy(config).duration_s;
    jobs.push_back(job);
  }
  return jobs;
}

double RetryPolicy::backoff_for(int failures) const noexcept {
  if (failures <= 0) return 0.0;
  double backoff = backoff_base_s;
  for (int i = 1; i < failures && backoff < backoff_cap_s; ++i) backoff *= 2.0;
  return std::min(backoff, backoff_cap_s);
}

MigrationSchedule schedule_migrations(std::span<const MigrationJob> jobs,
                                      int per_host_limit,
                                      const MigrationFaults& faults) {
  MigrationSchedule result;
  result.start_s.assign(jobs.size(), 0.0);
  result.jobs.assign(jobs.size(), JobAttempts{});
  if (jobs.empty()) return result;
  per_host_limit = std::max(per_host_limit, 1);
  const RetryPolicy& policy = faults.policy;
  const double deadline_s = faults.deadline_s;
  const int max_attempts = std::max(policy.max_attempts, 1);

  // Effective durations: a slowed migration runs longer on every attempt.
  std::vector<double> duration(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const double factor =
        faults.slowdown ? std::max(faults.slowdown(j), 1.0) : 1.0;
    duration[j] = jobs[j].duration_s * factor;
  }

  // Longest job first.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return duration[a] > duration[b];
                   });

  enum class State { kPending, kRunning, kDone, kAbandoned };
  std::vector<State> state(jobs.size(), State::kPending);
  std::vector<double> ready_at(jobs.size(), 0.0);  // earliest next try

  std::map<std::int32_t, int> busy;
  struct Running {
    double finish;
    std::size_t job;
  };
  auto later = [](const Running& a, const Running& b) {
    return a.finish > b.finish;
  };
  std::priority_queue<Running, std::vector<Running>, decltype(later)> running(
      later);
  double now = 0.0;
  std::size_t concurrent = 0;

  auto abandon = [&](std::size_t idx) {
    state[idx] = State::kAbandoned;
    ++result.abandoned;
  };

  for (;;) {
    // Start every job startable at `now`.
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t idx : order) {
        if (state[idx] != State::kPending || ready_at[idx] > now) continue;
        const auto& job = jobs[idx];
        if (busy[job.from] >= per_host_limit ||
            busy[job.to] >= per_host_limit)
          continue;
        if (now + duration[idx] > deadline_s) {
          // Cannot finish inside the interval: defer to the next one
          // rather than occupying slots for a doomed attempt.
          abandon(idx);
          continue;
        }
        state[idx] = State::kRunning;
        ++result.jobs[idx].attempts;
        ++result.total_attempts;
        ++busy[job.from];
        ++busy[job.to];
        result.start_s[idx] = now;
        running.push({now + duration[idx], idx});
        ++concurrent;
        result.peak_concurrency =
            std::max(result.peak_concurrency, concurrent);
        progress = true;
      }
    }
    if (running.empty()) {
      // Nothing running: jump to the earliest backoff expiry, if any.
      double next = -1.0;
      for (std::size_t idx : order)
        if (state[idx] == State::kPending &&
            (next < 0.0 || ready_at[idx] < next))
          next = ready_at[idx];
      if (next < 0.0) break;  // everything done or abandoned
      now = std::max(now, next);
      continue;
    }
    const Running done = running.top();
    running.pop();
    now = done.finish;
    const std::size_t idx = done.job;
    --busy[jobs[idx].from];
    --busy[jobs[idx].to];
    --concurrent;
    const int attempt = result.jobs[idx].attempts - 1;  // 0-based
    if (faults.attempt_fails && faults.attempt_fails(idx, attempt)) {
      ++result.failed_attempts;
      if (result.jobs[idx].attempts >= max_attempts) {
        abandon(idx);
      } else {
        const double back = policy.backoff_for(result.jobs[idx].attempts);
        ready_at[idx] = now + back;
        if (ready_at[idx] >= deadline_s)
          abandon(idx);
        else
          state[idx] = State::kPending;
      }
    } else {
      state[idx] = State::kDone;
      result.jobs[idx].completed = true;
      result.jobs[idx].finish_s = now;
      result.makespan_s = std::max(result.makespan_s, now);
    }
  }

  for (const auto& j : result.jobs)
    if (j.attempts > 1)
      result.retries += static_cast<std::size_t>(j.attempts - 1);
  return result;
}

ExecutionFeasibility execution_feasibility(
    std::span<const Placement> per_interval, std::span<const VmWorkload> vms,
    std::size_t eval_begin_hour, std::size_t interval_hours,
    const MigrationConfig& base, int per_host_limit) {
  ExecutionFeasibility result;
  const double interval_s =
      static_cast<double>(interval_hours) * 3600.0;
  for (std::size_t k = 1; k < per_interval.size(); ++k) {
    const std::size_t hour = eval_begin_hour + k * interval_hours;
    const auto jobs = migration_jobs(per_interval[k - 1], per_interval[k],
                                     vms, hour, base);
    const auto schedule = schedule_migrations(jobs, per_host_limit);
    result.makespan_s.push_back(schedule.makespan_s);
    result.worst_makespan_s =
        std::max(result.worst_makespan_s, schedule.makespan_s);
    if (schedule.makespan_s > interval_s) ++result.infeasible_intervals;
  }
  if (interval_s > 0)
    result.worst_utilization = result.worst_makespan_s / interval_s;
  return result;
}

}  // namespace vmcw
