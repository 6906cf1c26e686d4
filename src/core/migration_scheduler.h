// Execution step of the consolidation flow (Section 2.1): scheduling the
// live migrations that realize a placement change.
//
// Dynamic consolidation is only viable if each interval's migrations
// actually complete well inside the interval — "the time taken by live
// migration today" is exactly why the paper settles on 2-hour intervals
// (Section 7). This module turns a placement diff into migration jobs,
// prices each job with the pre-copy model, and list-schedules them under
// the real constraint: a host can drive only a limited number of
// simultaneous migrations (VMware ESX of the paper's era allowed 2 per
// host on 1 GbE), whether as source or as target.
//
// One scheduler serves every caller. Evacuation and execution_feasibility
// schedule with no faults; the chaos replay passes the interval deadline,
// its retry policy and the fault plan's failure and slowdown decisions.
// With no faults every attempt succeeds, so each job starts once.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "core/placement.h"
#include "core/vm.h"
#include "migration/precopy.h"

namespace vmcw {

struct MigrationJob {
  std::size_t vm = 0;
  std::int32_t from = -1;
  std::int32_t to = -1;
  double duration_s = 0;  ///< from the pre-copy model at the VM's footprint
};

/// Jobs required to go from `prev` to `next`. Each migrating VM's memory
/// footprint at `hour` prices its pre-copy duration via `base` (bandwidth,
/// dirty-rate and host-load parameters).
std::vector<MigrationJob> migration_jobs(const Placement& prev,
                                         const Placement& next,
                                         std::span<const VmWorkload> vms,
                                         std::size_t hour,
                                         const MigrationConfig& base);

/// Retry behavior when a migration attempt can fail (fault-injected replay,
/// src/chaos): a failed attempt is retried after capped exponential backoff
/// until it succeeds, the attempt budget is exhausted, or the interval
/// deadline passes.
struct RetryPolicy {
  int max_attempts = 4;          ///< total tries per job (1 = never retry)
  double backoff_base_s = 30.0;  ///< wait before the second attempt
  double backoff_cap_s = 480.0;  ///< exponential backoff ceiling

  /// Backoff after the `failures`-th consecutive failure (1-based):
  /// min(base * 2^(failures-1), cap).
  double backoff_for(int failures) const noexcept;
};

/// The faults a schedule runs under. The defaults are none: every attempt
/// succeeds at its priced duration and there is no deadline. Attempt `a`
/// (0-based) of job `j` fails when `attempt_fails(j, a)` and runs
/// `slowdown(j)`x longer than priced; both must be deterministic pure
/// functions for replay determinism, and either may be empty.
struct MigrationFaults {
  RetryPolicy policy;
  double deadline_s = std::numeric_limits<double>::infinity();
  std::function<bool(std::size_t, int)> attempt_fails;
  std::function<double(std::size_t)> slowdown;
};

/// Per-job outcome of a schedule.
struct JobAttempts {
  int attempts = 0;        ///< tries actually started
  bool completed = false;  ///< finished successfully before the deadline
  double finish_s = 0;     ///< completion time (valid when completed)
};

struct MigrationSchedule {
  double makespan_s = 0;  ///< completion time of the last successful job
  std::size_t peak_concurrency = 0;
  std::vector<double> start_s;  ///< per job: start of its last attempt
  std::size_t total_attempts = 0;
  std::size_t failed_attempts = 0;
  std::size_t retries = 0;    ///< attempts beyond each job's first
  std::size_t abandoned = 0;  ///< jobs not completed by the deadline
  std::vector<JobAttempts> jobs;  ///< parallel to the input jobs
};

/// Greedy longest-job-first list scheduling: a job may start when both its
/// source and target host have a free migration slot (each host serves at
/// most `per_host_limit` concurrent migrations in either role). An attempt
/// is only started if it can finish by `faults.deadline_s`; a failed
/// attempt occupies its slots for its full duration, then the job backs off
/// per `faults.policy` before recompeting for slots. Jobs that run out of
/// attempts or deadline are reported abandoned.
MigrationSchedule schedule_migrations(std::span<const MigrationJob> jobs,
                                      int per_host_limit = 2,
                                      const MigrationFaults& faults = {});

/// Feasibility of a whole dynamic plan: for each interval, the ratio of
/// migration makespan to interval length. Ratios above 1 mean the plan
/// cannot be executed at that cadence.
struct ExecutionFeasibility {
  std::vector<double> makespan_s;       ///< per interval
  double worst_makespan_s = 0;
  double worst_utilization = 0;         ///< worst makespan / interval length
  std::size_t infeasible_intervals = 0; ///< makespan > interval length
};

ExecutionFeasibility execution_feasibility(
    std::span<const Placement> per_interval, std::span<const VmWorkload> vms,
    std::size_t eval_begin_hour, std::size_t interval_hours,
    const MigrationConfig& base, int per_host_limit = 2);

}  // namespace vmcw
