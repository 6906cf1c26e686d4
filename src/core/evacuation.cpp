#include "core/evacuation.h"

#include <algorithm>

#include "core/admission.h"

namespace vmcw {

std::optional<EvacuationPlan> plan_evacuation(
    const Placement& current, std::int32_t host,
    std::span<const VmWorkload> vms, std::size_t hour, const HostPool& pool,
    const EvacuationOptions& options, const ConstraintSet& constraints) {
  if (!constraints.structurally_feasible()) return std::nullopt;
  // A VM pinned to the draining host cannot be moved.
  for (std::size_t vm = 0; vm < current.vm_count(); ++vm) {
    if (current.is_placed(vm) && current.host_of(vm) == host &&
        constraints.pinned_host(vm) == host)
      return std::nullopt;
  }

  EvacuationPlan plan;
  plan.after = current;

  // Current load of every surviving host at this hour.
  const std::size_t host_bound =
      std::max<std::size_t>(current.host_index_bound(),
                            static_cast<std::size_t>(host) + 1);
  std::vector<ResourceVector> load(host_bound);
  std::vector<std::size_t> evacuees;
  for (std::size_t vm = 0; vm < current.vm_count() && vm < vms.size(); ++vm) {
    if (!current.is_placed(vm)) continue;
    const auto h = static_cast<std::size_t>(current.host_of(vm));
    if (current.host_of(vm) == host)
      evacuees.push_back(vm);
    else
      load[h] += vms[vm].demand_at(hour);
  }

  // Biggest evacuees first (FFD on current demand).
  std::vector<ResourceVector> demands(vms.size());
  for (std::size_t vm : evacuees) demands[vm] = vms[vm].demand_at(hour);
  std::stable_sort(evacuees.begin(), evacuees.end(),
                   [&](std::size_t a, std::size_t b) {
                     return demands[a].cpu_rpe2 + demands[a].memory_mb >
                            demands[b].cpu_rpe2 + demands[b].memory_mb;
                   });

  // Targets: the surviving hosts that already run VMs — maintenance should
  // not power servers back on — minus the unavailable ones and any index
  // past a bounded pool.
  std::vector<std::uint8_t> frozen(host_bound, 1);
  for (std::size_t vm = 0; vm < current.vm_count(); ++vm)
    if (current.is_placed(vm))
      frozen[static_cast<std::size_t>(current.host_of(vm))] = 0;
  for (std::size_t h = 0; h < host_bound; ++h)
    if ((h < options.unavailable_hosts.size() &&
         options.unavailable_hosts[h] != 0) ||
        !pool.valid_host(h))
      frozen[h] = 1;

  AdmissionOptions admission;
  admission.exclude_host = host;
  admission.frozen_hosts = frozen;
  admission.open_new_hosts = false;
  for (std::size_t vm : evacuees) plan.after.unassign(vm);
  for (std::size_t vm : evacuees)
    if (!admit_one(vm, demands[vm], load, pool, options.destination_bound,
                   constraints, plan.after, admission))
      return std::nullopt;

  plan.jobs = migration_jobs(current, plan.after, vms, hour,
                             options.migration);
  plan.schedule =
      schedule_migrations(plan.jobs, options.per_host_migration_limit);
  return plan;
}

}  // namespace vmcw
