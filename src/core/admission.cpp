#include "core/admission.h"

#include <algorithm>

#include "runtime/thread_pool.h"
#include "core/capacity_index.h"
#include "util/reuse.h"

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

std::optional<std::size_t> admit_group(std::span<const std::size_t> group,
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
  const std::size_t group[] = {vm};
  return admit_group(group, size, host_load, pool, utilization_bound,
                     constraints, placement, options);
}

bool admit_group_at(std::span<const std::size_t> group,
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

namespace {

/// Visit `host`'s residents: those at entry in ascending VM order, then
/// the VMs the call moved onto it, in the order they came.
template <typename Visit>
void for_each_resident(const RepairWorkspace& ws, std::size_t host,
                       std::size_t scanned_hosts, Visit&& visit) {
  if (host < scanned_hosts)
    for (std::size_t i = ws.offset[host]; i < ws.offset[host + 1]; ++i)
      if (ws.moved[ws.base[i]] == 0) visit(ws.base[i]);
  if (host < ws.head.size())
    for (std::uint32_t e = ws.head[host]; e != 0; e = ws.appended[e - 1].next)
      if (ws.moved[ws.appended[e - 1].vm] == e) visit(ws.appended[e - 1].vm);
}

/// `vm` left `from` for `to`: append it to `to`'s chain, retiring its older
/// entries.
void record_move(RepairWorkspace& ws, std::size_t vm, std::size_t from,
                 std::size_t to) {
  if (to >= ws.head.size()) {
    ws.head.resize(to + 1, 0);
    ws.tail.resize(to + 1, 0);
    ws.residents.resize(to + 1, 0);
  }
  ws.appended.push_back({vm, 0});
  const auto e = static_cast<std::uint32_t>(ws.appended.size());
  if (ws.tail[to] == 0)
    ws.head[to] = e;
  else
    ws.appended[ws.tail[to] - 1].next = e;
  ws.tail[to] = e;
  ws.moved[vm] = e;
  --ws.residents[from];
  ++ws.residents[to];
}

}  // namespace

const RepairOutcome& repair_and_drain(
    RepairWorkspace& ws, std::span<const ResourceVector> sizes,
    Placement& placement, std::vector<ResourceVector>& host_load,
    const HostPool& pool, double utilization_bound, double drain_below,
    const ConstraintSet& constraints,
    std::span<const std::uint8_t> frozen_hosts, CapacityIndex* index) {
  RepairOutcome& out = ws.outcome;
  out.repair_moves.clear();
  out.drain_moves.clear();
  out.unresolved_hosts.clear();
  out.drained_hosts.clear();
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
  refill(ws.members, n, std::uint32_t{0});
  for (std::size_t vm = 0; vm < n; ++vm)
    ++ws.members[constraints.affinity_root(vm)];
  ws.movable.resize(n);
  for (std::size_t vm = 0; vm < n; ++vm)
    ws.movable[vm] = ws.members[constraints.affinity_root(vm)] == 1;
  for (const auto& pin : constraints.pins())
    if (pin.first < n &&
        constraints.pinned_host(pin.first) != Placement::kUnplaced)
      ws.movable[pin.first] = 0;

  // Residents per host at entry, ascending: count, prefix-sum into run
  // ends, fill each run, then shift the ends back into starts.
  refill(ws.residents, scanned_hosts, std::uint32_t{0});
  for (std::size_t vm = 0; vm < n; ++vm) {
    const std::int32_t h = placement.host_of(vm);
    if (h != Placement::kUnplaced &&
        static_cast<std::size_t>(h) < scanned_hosts)
      ++ws.residents[static_cast<std::size_t>(h)];
  }
  ws.offset.resize(scanned_hosts + 1);
  ws.offset[0] = 0;
  for (std::size_t host = 0; host < scanned_hosts; ++host)
    ws.offset[host + 1] = ws.offset[host] + ws.residents[host];
  ws.base.resize(ws.offset[scanned_hosts]);
  for (std::size_t vm = 0; vm < n; ++vm) {
    const std::int32_t h = placement.host_of(vm);
    if (h != Placement::kUnplaced &&
        static_cast<std::size_t>(h) < scanned_hosts)
      ws.base[ws.offset[static_cast<std::size_t>(h)]++] = vm;
  }
  for (std::size_t host = scanned_hosts; host > 0; --host)
    ws.offset[host] = ws.offset[host - 1];
  ws.offset[0] = 0;
  refill(ws.moved, n, std::uint32_t{0});
  ws.appended.clear();
  refill(ws.head, scanned_hosts, std::uint32_t{0});
  refill(ws.tail, scanned_hosts, std::uint32_t{0});

  // Threshold classification fans across the pool — each slot is written
  // by exactly one task, so the flag vector (and everything sequential
  // below it) is bit-identical at any thread count. Admission never pushes
  // a *target* past its bound, so the overloaded set cannot grow while we
  // repair; drain candidacy is pinned to the loads as classified here.
  refill(ws.overloaded, scanned_hosts, std::uint8_t{0});
  refill(ws.drainable, scanned_hosts, std::uint8_t{0});
  const auto classify = [&](std::size_t host) {
    const ResourceVector capacity =
        pool.capacity_of(host, utilization_bound);
    if (!host_load[host].fits_within(capacity)) ws.overloaded[host] = 1;
    if (drain_below > 0 && ws.residents[host] != 0 &&
        normalized_load(host_load[host], capacity) < drain_below)
      ws.drainable[host] = 1;
  };
  // One captured reference fits std::function's inline buffer: no
  // allocation per call.
  parallel_for(0, scanned_hosts,
               [&classify](std::size_t host) { classify(host); });

  // ---- repair: evict until the host fits, re-admitting each evictee ----
  for (std::size_t host = 0; host < scanned_hosts; ++host) {
    if (!ws.overloaded[host] || frozen_at(frozen_hosts, host)) continue;
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
      for_each_resident(ws, host, scanned_hosts, [&](std::size_t vm) {
        if (!ws.movable[vm]) return;
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
      });
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
      record_move(ws, victim, host, *target);
      out.repair_moves.push_back(
          {victim, static_cast<std::int32_t>(host),
           static_cast<std::int32_t>(*target)});
    }
  }

  // ---- drain: empty underutilized hosts entirely, or not at all ----
  // Targets: non-empty, unfrozen hosts other than the candidate. Opening a
  // fresh host (or refilling a drained one) would free nothing. The filter
  // is set once here: a drain empties only its candidate, which stays
  // filtered, and fills only hosts that were already non-empty.
  ws.drain_frozen.resize(host_load.size());
  for (std::size_t h = 0; h < host_load.size(); ++h)
    ws.drain_frozen[h] = frozen_at(frozen_hosts, h) ||
                         h >= ws.residents.size() || ws.residents[h] == 0;
  for (std::size_t host = 0; host < scanned_hosts; ++host) {
    if (!ws.drainable[host] || frozen_at(frozen_hosts, host)) continue;
    if (ws.residents[host] == 0) continue;  // repair already emptied it
    bool all_movable = true;
    for_each_resident(ws, host, scanned_hosts, [&](std::size_t vm) {
      if (!ws.movable[vm]) all_movable = false;
    });
    if (!all_movable) continue;

    // Largest first; equal keys keep resident order (a stable sort that
    // needs no buffer).
    const ResourceVector capacity =
        pool.capacity_of(host, utilization_bound);
    ws.order_vms.clear();
    for_each_resident(ws, host, scanned_hosts,
                      [&](std::size_t vm) { ws.order_vms.push_back(vm); });
    ws.order.clear();
    for (std::size_t i = 0; i < ws.order_vms.size(); ++i)
      ws.order.emplace_back(normalized_load(sizes[ws.order_vms[i]], capacity),
                            i);
    std::sort(ws.order.begin(), ws.order.end(),
              [](const auto& a, const auto& b) {
                if (a.first > b.first) return true;
                if (b.first > a.first) return false;
                return a.second < b.second;
              });

    ws.drain_frozen[host] = 1;
    ws.trial.clear();
    bool complete = true;
    for (const auto& entry : ws.order) {
      const std::size_t vm = ws.order_vms[entry.second];
      placement.unassign(vm);
      host_load[host] -= sizes[vm];
      sync(host);
      AdmissionOptions options;
      options.frozen_hosts = ws.drain_frozen;
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
      ws.trial.push_back({vm, static_cast<std::int32_t>(host),
                          static_cast<std::int32_t>(*target)});
    }
    if (!complete) {  // roll the partial drain back; all or nothing
      for (auto it = ws.trial.rbegin(); it != ws.trial.rend(); ++it) {
        placement.assign(it->vm, it->from);
        host_load[static_cast<std::size_t>(it->to)] -= sizes[it->vm];
        host_load[static_cast<std::size_t>(it->from)] += sizes[it->vm];
        sync(static_cast<std::size_t>(it->to));
        sync(static_cast<std::size_t>(it->from));
      }
      ws.drain_frozen[host] = 0;
      continue;
    }
    for (const PlacementMove& move : ws.trial)
      record_move(ws, move.vm, host, static_cast<std::size_t>(move.to));
    out.drained_hosts.push_back(host);
    out.drain_moves.insert(out.drain_moves.end(), ws.trial.begin(),
                           ws.trial.end());
  }

  return out;
}

}  // namespace vmcw
