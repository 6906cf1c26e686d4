#include "core/admission.h"

#include <algorithm>

#include "runtime/thread_pool.h"
#include "core/capacity_index.h"

namespace vmcw {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

bool frozen_at(std::span<const std::uint8_t> frozen, std::size_t host) {
  return host < frozen.size() && frozen[host] != 0;
}

}  // namespace

std::vector<std::vector<std::size_t>> placement_groups(
    std::size_t n, const ConstraintSet& constraints) {
  auto groups = constraints.affinity_groups();
  std::vector<bool> covered(n, false);
  for (const auto& g : groups)
    for (std::size_t vm : g)
      if (vm < n) covered[vm] = true;
  for (std::size_t vm = 0; vm < n; ++vm)
    if (!covered[vm]) groups.push_back({vm});
  // Drop group members beyond the item range (constraints on unknown VMs).
  for (auto& g : groups)
    g.erase(std::remove_if(g.begin(), g.end(),
                           [n](std::size_t vm) { return vm >= n; }),
            g.end());
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const auto& g) { return g.empty(); }),
               groups.end());
  return groups;
}

std::optional<std::size_t> admit_group(const std::vector<std::size_t>& group,
                                       const ResourceVector& group_size,
                                       std::vector<ResourceVector>& host_load,
                                       const HostPool& pool,
                                       double utilization_bound,
                                       const ConstraintSet& constraints,
                                       Placement& placement,
                                       const AdmissionOptions& options) {
  CapacityIndex* index = options.index;
  auto try_host = [&](std::size_t host) {
    if (static_cast<std::int32_t>(host) == options.exclude_host) return false;
    if (frozen_at(options.frozen_hosts, host)) return false;
    if (!(group_size + host_load[host])
             .fits_within(pool.capacity_of(host, utilization_bound)))
      return false;
    if (!constraints.allows_group(group, static_cast<std::int32_t>(host),
                                  placement))
      return false;
    for (std::size_t vm : group)
      placement.assign(vm, static_cast<std::int32_t>(host));
    host_load[host] += group_size;
    if (index) index->set_load(host, host_load[host]);
    return true;
  };

  if (index) {
    // Indexed first-fit: enumerate only hosts whose (slack-padded) free
    // capacity covers the group. try_host re-applies the exact predicates,
    // so a filtered candidate failing there just advances the cursor —
    // identical to the linear scan rejecting that host.
    std::size_t from = 0;
    while (from < host_load.size()) {
      const std::size_t host = index->first_fit(group_size, from);
      if (host == CapacityIndex::npos || host >= host_load.size()) break;
      if (try_host(host)) return host;
      from = host + 1;
    }
  } else {
    for (std::size_t host = 0; host < host_load.size(); ++host)
      if (try_host(host)) return host;
  }

  if (!options.open_new_hosts) return std::nullopt;
  // A pinned group can only land on its pin. Opening hosts past that index
  // can never help (allows_group rejects every other host), so probing
  // stops there instead of walking an unbounded pool forever.
  std::int32_t pin = Placement::kUnplaced;
  for (std::size_t vm : group) {
    pin = constraints.pinned_host(vm);
    if (pin != Placement::kUnplaced) break;
  }
  while (true) {
    const std::size_t host = host_load.size();
    if (pin != Placement::kUnplaced && host > static_cast<std::size_t>(pin))
      return std::nullopt;
    if (!pool.valid_host(host)) return std::nullopt;  // bounded pool exhausted
    host_load.emplace_back();
    if (index) index->push_host(pool.capacity_of(host, utilization_bound));
    if (try_host(host)) return host;
    // An empty host rejected the group. If the rejection was capacity (not
    // a finite constraint) and we are already in the trailing unlimited
    // class, every later host is identical: fail instead of looping
    // forever. Bounded classes are simply skipped.
    const bool fits_capacity = group_size.fits_within(
        pool.capacity_of(host, utilization_bound));
    if (!fits_capacity && pool.in_unlimited_class(host)) return std::nullopt;
  }
}

std::optional<std::size_t> admit_one(std::size_t vm, const ResourceVector& size,
                                     std::vector<ResourceVector>& host_load,
                                     const HostPool& pool,
                                     double utilization_bound,
                                     const ConstraintSet& constraints,
                                     Placement& placement,
                                     const AdmissionOptions& options) {
  const std::vector<std::size_t> group{vm};
  return admit_group(group, size, host_load, pool, utilization_bound,
                     constraints, placement, options);
}

bool admit_group_at(const std::vector<std::size_t>& group,
                    const ResourceVector& group_size, std::size_t host,
                    std::vector<ResourceVector>& host_load,
                    const HostPool& pool, double utilization_bound,
                    const ConstraintSet& constraints, Placement& placement,
                    CapacityIndex* index) {
  if (!pool.valid_host(host)) return false;
  while (host_load.size() <= host) {
    if (index)
      index->push_host(pool.capacity_of(host_load.size(), utilization_bound));
    host_load.emplace_back();
  }
  if (!(group_size + host_load[host])
           .fits_within(pool.capacity_of(host, utilization_bound)))
    return false;
  if (!constraints.allows_group(group, static_cast<std::int32_t>(host),
                                placement))
    return false;
  for (std::size_t vm : group)
    placement.assign(vm, static_cast<std::int32_t>(host));
  host_load[host] += group_size;
  if (index) index->set_load(host, host_load[host]);
  return true;
}

RepairOutcome repair_and_drain(std::span<const ResourceVector> sizes,
                               Placement& placement,
                               std::vector<ResourceVector>& host_load,
                               const HostPool& pool, double utilization_bound,
                               double drain_below,
                               const ConstraintSet& constraints,
                               std::span<const std::uint8_t> frozen_hosts,
                               CapacityIndex* index) {
  RepairOutcome out;
  const std::size_t n = placement.vm_count();
  const std::size_t scanned_hosts = host_load.size();
  // Every direct host_load mutation below pairs with a sync; admit_one
  // maintains the index for the mutations it makes itself.
  auto sync = [&](std::size_t host) {
    if (index) index->set_load(host, host_load[host]);
  };

  // Movable = the only member below n of its affinity group, and not
  // pinned; everything else stays where the batch planner put it. A root
  // is its group's smallest member, so every VM below n has its root below
  // n too, and one count per root sizes each group.
  std::vector<std::uint32_t> members(n, 0);
  for (std::size_t vm = 0; vm < n; ++vm)
    ++members[constraints.affinity_root(vm)];
  std::vector<std::uint8_t> movable(n, 0);
  for (std::size_t vm = 0; vm < n; ++vm)
    movable[vm] = members[constraints.affinity_root(vm)] == 1 &&
                  constraints.pinned_host(vm) == Placement::kUnplaced;

  // Residents per host in ascending VM order, each list sized up front.
  std::vector<std::uint32_t> resident_count(scanned_hosts, 0);
  for (std::size_t vm = 0; vm < n; ++vm) {
    const std::int32_t h = placement.host_of(vm);
    if (h != Placement::kUnplaced &&
        static_cast<std::size_t>(h) < scanned_hosts)
      ++resident_count[static_cast<std::size_t>(h)];
  }
  std::vector<std::vector<std::size_t>> vms_by_host(scanned_hosts);
  for (std::size_t host = 0; host < scanned_hosts; ++host)
    vms_by_host[host].reserve(resident_count[host]);
  for (std::size_t vm = 0; vm < n; ++vm) {
    const std::int32_t h = placement.host_of(vm);
    if (h != Placement::kUnplaced &&
        static_cast<std::size_t>(h) < scanned_hosts)
      vms_by_host[static_cast<std::size_t>(h)].push_back(vm);
  }

  // Threshold classification fans across the pool — each slot is written
  // by exactly one task, so the flag vector (and everything sequential
  // below it) is bit-identical at any thread count. Admission never pushes
  // a *target* past its bound, so the overloaded set cannot grow while we
  // repair; drain candidacy is pinned to the loads as classified here.
  std::vector<std::uint8_t> overloaded(scanned_hosts, 0);
  std::vector<std::uint8_t> drainable(scanned_hosts, 0);
  parallel_for(0, scanned_hosts, [&](std::size_t host) {
    const ResourceVector capacity =
        pool.capacity_of(host, utilization_bound);
    if (!host_load[host].fits_within(capacity)) overloaded[host] = 1;
    if (drain_below > 0 && !vms_by_host[host].empty() &&
        normalized_load(host_load[host], capacity) < drain_below)
      drainable[host] = 1;
  });

  // ---- repair: evict until the host fits, re-admitting each evictee ----
  for (std::size_t host = 0; host < scanned_hosts; ++host) {
    if (!overloaded[host] || frozen_at(frozen_hosts, host)) continue;
    const ResourceVector capacity =
        pool.capacity_of(host, utilization_bound);
    while (!host_load[host].fits_within(capacity)) {
      const ResourceVector excess = host_load[host] - capacity;
      // Cheapest adequate action: the smallest VM whose departure resolves
      // the overload; otherwise the largest movable one.
      std::size_t best_single = kNone;
      double best_single_key = 0.0;
      std::size_t largest = kNone;
      double largest_key = -1.0;
      for (std::size_t vm : vms_by_host[host]) {
        if (!movable[vm]) continue;
        const double key = normalized_load(sizes[vm], capacity);
        const bool resolves = sizes[vm].cpu_rpe2 >= excess.cpu_rpe2 - 1e-9 &&
                              sizes[vm].memory_mb >= excess.memory_mb - 1e-9;
        if (resolves && (best_single == kNone || key < best_single_key)) {
          best_single = vm;
          best_single_key = key;
        }
        if (key > largest_key) {
          largest = vm;
          largest_key = key;
        }
      }
      const std::size_t victim = best_single != kNone ? best_single : largest;
      if (victim == kNone) {  // only pinned/grouped VMs remain
        out.unresolved_hosts.push_back(host);
        break;
      }
      placement.unassign(victim);
      host_load[host] -= sizes[victim];
      sync(host);
      AdmissionOptions options;
      options.exclude_host = static_cast<std::int32_t>(host);
      options.frozen_hosts = frozen_hosts;
      options.index = index;
      const auto target = admit_one(victim, sizes[victim], host_load, pool,
                                    utilization_bound, constraints, placement,
                                    options);
      if (!target) {  // nowhere to go: keep the VM, report the host stuck
        placement.assign(victim, static_cast<std::int32_t>(host));
        host_load[host] += sizes[victim];
        sync(host);
        out.unresolved_hosts.push_back(host);
        break;
      }
      auto& residents = vms_by_host[host];
      residents.erase(std::remove(residents.begin(), residents.end(), victim),
                      residents.end());
      if (*target >= vms_by_host.size()) vms_by_host.resize(host_load.size());
      vms_by_host[*target].push_back(victim);
      out.repair_moves.push_back(
          {victim, static_cast<std::int32_t>(host),
           static_cast<std::int32_t>(*target)});
    }
  }

  // ---- drain: empty underutilized hosts entirely, or not at all ----
  for (std::size_t host = 0; host < scanned_hosts; ++host) {
    if (!drainable[host] || frozen_at(frozen_hosts, host)) continue;
    if (vms_by_host[host].empty()) continue;  // repair already emptied it
    bool all_movable = true;
    for (std::size_t vm : vms_by_host[host])
      if (!movable[vm]) all_movable = false;
    if (!all_movable) continue;

    // Targets: non-empty, unfrozen hosts other than the candidate. Opening
    // a fresh host (or refilling a drained one) would free nothing.
    std::vector<std::uint8_t> drain_frozen(host_load.size(), 0);
    for (std::size_t h = 0; h < host_load.size(); ++h)
      drain_frozen[h] =
          frozen_at(frozen_hosts, h) ||
          (h < vms_by_host.size() ? vms_by_host[h].empty() : true);
    drain_frozen[host] = 1;

    std::vector<std::size_t> order = vms_by_host[host];
    const ResourceVector capacity =
        pool.capacity_of(host, utilization_bound);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return normalized_load(sizes[a], capacity) >
                              normalized_load(sizes[b], capacity);
                     });

    std::vector<PlacementMove> trial;
    bool complete = true;
    for (std::size_t vm : order) {
      placement.unassign(vm);
      host_load[host] -= sizes[vm];
      sync(host);
      AdmissionOptions options;
      options.frozen_hosts = drain_frozen;
      options.open_new_hosts = false;
      options.index = index;
      const auto target = admit_one(vm, sizes[vm], host_load, pool,
                                    utilization_bound, constraints, placement,
                                    options);
      if (!target) {
        placement.assign(vm, static_cast<std::int32_t>(host));
        host_load[host] += sizes[vm];
        sync(host);
        complete = false;
        break;
      }
      trial.push_back({vm, static_cast<std::int32_t>(host),
                       static_cast<std::int32_t>(*target)});
    }
    if (!complete) {  // roll the partial drain back; all or nothing
      for (auto it = trial.rbegin(); it != trial.rend(); ++it) {
        placement.assign(it->vm, it->from);
        host_load[static_cast<std::size_t>(it->to)] -= sizes[it->vm];
        host_load[static_cast<std::size_t>(it->from)] += sizes[it->vm];
        sync(static_cast<std::size_t>(it->to));
        sync(static_cast<std::size_t>(it->from));
      }
      continue;
    }
    for (const PlacementMove& move : trial)
      vms_by_host[static_cast<std::size_t>(move.to)].push_back(move.vm);
    vms_by_host[host].clear();
    out.drained_hosts.push_back(host);
    out.drain_moves.insert(out.drain_moves.end(), trial.begin(), trial.end());
  }

  return out;
}

}  // namespace vmcw
