#include "core/binpack.h"

#include <algorithm>

#include "core/admission.h"
#include "core/capacity_index.h"

namespace vmcw {

std::vector<std::size_t> decreasing_size_order(
    std::span<const ResourceVector> sizes, const ResourceVector& capacity) {
  std::vector<std::size_t> order(sizes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return normalized_load(sizes[a], capacity) >
                            normalized_load(sizes[b], capacity);
                   });
  return order;
}

std::optional<PackResult> ffd_pack(std::span<const ResourceVector> sizes,
                                   const HostPool& pool,
                                   double utilization_bound,
                                   const ConstraintSet& constraints) {
  const std::size_t n = sizes.size();
  if (!constraints.structurally_feasible()) return std::nullopt;

  // Affinity groups become super-items placed atomically.
  const ConstraintSet& cs = constraints;
  const auto groups = placement_groups(n, cs);

  std::vector<ResourceVector> group_sizes(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t vm : groups[g]) group_sizes[g] += sizes[vm];

  const auto order = decreasing_size_order(
      group_sizes, pool.reference_capacity(utilization_bound));

  Placement placement(n);
  std::vector<ResourceVector> host_load;
  // Free-capacity index over the open hosts: admission enumerates target
  // candidates in O(log n) instead of scanning the fleet, with placements
  // identical to the scan (capacity_index.h states the argument).
  CapacityIndex index;

  // Pinned groups go first: their host is not negotiable, so it must be
  // claimed before free groups can fill it.
  std::vector<std::int32_t> group_pin(groups.size(), Placement::kUnplaced);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t vm : groups[g]) {
      const std::int32_t p = cs.pinned_host(vm);
      if (p != Placement::kUnplaced) group_pin[g] = p;
    }
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (group_pin[g] == Placement::kUnplaced) continue;
    if (!admit_group_at(groups[g], group_sizes[g],
                        static_cast<std::size_t>(group_pin[g]), host_load,
                        pool, utilization_bound, cs, placement, &index))
      return std::nullopt;
  }

  // Free groups first-fit through the shared single-admission path — the
  // same code the online daemon admits one VM at a time through.
  AdmissionOptions options;
  options.index = &index;
  for (std::size_t g : order) {
    if (group_pin[g] != Placement::kUnplaced) continue;  // already placed
    if (!admit_group(groups[g], group_sizes[g], host_load, pool,
                     utilization_bound, cs, placement, options))
      return std::nullopt;  // pool exhausted or the group fits nowhere
  }

  PackResult result{std::move(placement), 0};
  result.hosts_used = result.placement.active_host_count();
  return result;
}

std::optional<PackResult> ffd_pack(std::span<const ResourceVector> sizes,
                                   const ResourceVector& capacity,
                                   const ConstraintSet& constraints) {
  ServerSpec spec;
  spec.model = "uniform";
  spec.cpu_rpe2 = capacity.cpu_rpe2;
  spec.memory_mb = capacity.memory_mb;
  return ffd_pack(sizes, HostPool::uniform(std::move(spec)), 1.0, constraints);
}

}  // namespace vmcw
