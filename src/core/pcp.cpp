#include "core/pcp.h"

#include <algorithm>
#include <map>

#include "analysis/correlation.h"
#include "core/admission.h"
#include "core/capacity_index.h"

namespace vmcw {

std::vector<StochasticItem> make_stochastic_items(
    std::span<const VmWorkload> vms, std::size_t begin, std::size_t len,
    double body_percentile, double cluster_similarity,
    double memory_body_percentile) {
  std::vector<StochasticItem> items(vms.size());
  std::vector<std::vector<double>> signatures(vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const auto cpu = vms[i].cpu_rpe2.slice(begin, len);
    const auto mem = vms[i].mem_mb.slice(begin, len);
    const BodyTail cpu_bt = body_tail(cpu, body_percentile);
    const BodyTail mem_bt = body_tail(mem, memory_body_percentile);
    items[i].body = ResourceVector{cpu_bt.body, mem_bt.body};
    items[i].tail = ResourceVector{cpu_bt.tail, mem_bt.tail};
    // Signature over the window slice; hour-of-day phase is preserved
    // because `begin` is always a multiple of 24 in the planners.
    signatures[i] = peak_signature(cpu, cpu_bt.body);
  }
  const auto clusters = cluster_signatures(signatures, cluster_similarity);
  for (std::size_t i = 0; i < vms.size(); ++i) items[i].cluster = clusters[i];
  return items;
}

namespace {

/// Incrementally maintained host envelope.
struct HostEnvelope {
  ResourceVector body_sum;
  // Ordered map: provisioned()/provisioned_with() fold over the entries,
  // and envelope math must not depend on hash iteration order.
  std::map<std::size_t, ResourceVector> cluster_tails;

  ResourceVector provisioned() const {
    ResourceVector worst_tail;
    for (const auto& [cluster, tail] : cluster_tails) {
      worst_tail.cpu_rpe2 = std::max(worst_tail.cpu_rpe2, tail.cpu_rpe2);
      worst_tail.memory_mb = std::max(worst_tail.memory_mb, tail.memory_mb);
    }
    return body_sum + worst_tail;
  }

  ResourceVector provisioned_with(const StochasticItem& item) const {
    ResourceVector worst_tail;
    for (const auto& [cluster, tail] : cluster_tails) {
      ResourceVector t = tail;
      if (cluster == item.cluster) t += item.tail;
      worst_tail.cpu_rpe2 = std::max(worst_tail.cpu_rpe2, t.cpu_rpe2);
      worst_tail.memory_mb = std::max(worst_tail.memory_mb, t.memory_mb);
    }
    if (!cluster_tails.contains(item.cluster)) {
      worst_tail.cpu_rpe2 = std::max(worst_tail.cpu_rpe2, item.tail.cpu_rpe2);
      worst_tail.memory_mb =
          std::max(worst_tail.memory_mb, item.tail.memory_mb);
    }
    return body_sum + item.body + worst_tail;
  }

  void add(const StochasticItem& item) {
    body_sum += item.body;
    cluster_tails[item.cluster] += item.tail;
  }
};

}  // namespace

ResourceVector pcp_envelope(std::span<const StochasticItem> items,
                            std::span<const std::size_t> members) {
  HostEnvelope env;
  for (std::size_t m : members) env.add(items[m]);
  return env.provisioned();
}

std::optional<PackResult> pcp_pack(std::span<const StochasticItem> items,
                                   const ResourceVector& capacity,
                                   const ConstraintSet& constraints) {
  const std::size_t n = items.size();
  if (!constraints.structurally_feasible()) return std::nullopt;

  // Order by decreasing worst-case single-item footprint (body + tail).
  std::vector<ResourceVector> worst_case(n);
  for (std::size_t i = 0; i < n; ++i)
    worst_case[i] = items[i].body + items[i].tail;

  // Affinity groups placed atomically (same mechanics as ffd_pack).
  const auto groups = placement_groups(n, constraints);

  std::vector<ResourceVector> group_worst(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t vm : groups[g]) group_worst[g] += worst_case[vm];
  const auto order = decreasing_size_order(group_worst, capacity);

  Placement placement(n);
  std::vector<HostEnvelope> hosts;

  // Skip-filter over envelope headroom. The leaf for a host stores
  // capacity - provisioned(host); a group is queried with its body sum.
  // Sound because fits_on implies the group's final envelope fits, and
  // that envelope exceeds provisioned(host) by at least the body sum (the
  // worst tail only grows when items are added) — so any host fits_on
  // would accept has headroom >= body sum and survives the filter. Hosts
  // the filter skips are hosts fits_on must reject, and every surviving
  // candidate is re-tested with fits_on exactly.
  CapacityIndex index;
  std::vector<ResourceVector> group_body(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t vm : groups[g]) group_body[g] += items[vm].body;
  auto open_host = [&]() {
    hosts.emplace_back();
    index.push_host(capacity);
  };
  auto refresh_host = [&](std::size_t host) {
    index.set_load(host, hosts[host].provisioned());
  };

  auto fits_capacity = [&](std::size_t g, std::size_t host) {
    HostEnvelope trial = hosts[host];
    for (std::size_t vm : groups[g]) {
      if (!trial.provisioned_with(items[vm]).fits_within(capacity))
        return false;
      trial.add(items[vm]);
    }
    return true;
  };
  auto fits_on = [&](std::size_t g, std::size_t host) {
    return fits_capacity(g, host) &&
           constraints.allows_group(groups[g],
                                    static_cast<std::int32_t>(host), placement);
  };
  auto place_on = [&](std::size_t g, std::size_t host) {
    for (std::size_t vm : groups[g]) {
      hosts[host].add(items[vm]);
      placement.assign(vm, static_cast<std::int32_t>(host));
    }
  };

  // Pinned groups claim their hosts before anything else fills them.
  std::vector<std::int32_t> group_pin(groups.size(), Placement::kUnplaced);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t vm : groups[g]) {
      const std::int32_t p = constraints.pinned_host(vm);
      if (p != Placement::kUnplaced) group_pin[g] = p;
    }
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (group_pin[g] == Placement::kUnplaced) continue;
    while (hosts.size() <= static_cast<std::size_t>(group_pin[g])) open_host();
    if (!fits_on(g, static_cast<std::size_t>(group_pin[g])))
      return std::nullopt;
    place_on(g, static_cast<std::size_t>(group_pin[g]));
    refresh_host(static_cast<std::size_t>(group_pin[g]));
  }

  for (std::size_t g : order) {
    if (group_pin[g] != Placement::kUnplaced) continue;  // already placed
    bool placed = false;
    std::size_t from = 0;
    while (from < hosts.size()) {
      const std::size_t host = index.first_fit(group_body[g], from);
      if (host == CapacityIndex::npos || host >= hosts.size()) break;
      if (fits_on(g, host)) {
        place_on(g, host);
        refresh_host(host);
        placed = true;
        break;
      }
      from = host + 1;
    }
    // No open host takes the group: probe fresh hosts, as admit_group
    // does, past any the constraints refuse (a spread rule's capped rack).
    // An empty host that lacks the capacity means every later one does.
    while (!placed) {
      open_host();
      const std::size_t host = hosts.size() - 1;
      if (fits_on(g, host)) {
        place_on(g, host);
        refresh_host(host);
        placed = true;
      } else if (!fits_capacity(g, host)) {
        return std::nullopt;
      }
    }
  }

  PackResult result{std::move(placement), 0};
  result.hosts_used = result.placement.active_host_count();
  return result;
}

}  // namespace vmcw
