// Dynamic consolidation planner.
//
// Captures the salient features of the schemes the paper uses ([26]
// pMapper-style power-aware placement, [15] cost-sensitive adaptation): at
// the start of every consolidation interval each VM is re-sized to its
// predicted peak for the coming window, and the placement is *incrementally*
// adapted from the previous interval choosing cheap actions first:
//
//   1. repair   — hosts whose predicted load exceeds the utilization bound
//                 evict VMs; the planner prefers the single smallest VM
//                 whose departure resolves the overload (cheapest adequate
//                 action), falling back to evicting the largest.
//   2. place    — evicted VMs first-fit onto the most-loaded feasible hosts
//                 (tight packing keeps the footprint small).
//   3. consolidate — lightly loaded hosts are emptied entirely onto the
//                 remaining fleet when possible and powered off.
//
// Every VM that changes host is one live migration; the paper's observation
// that >25% of VMs can migrate per interval emerges from exactly this loop.
// Pinned VMs never move; affinity groups move atomically.
//
// Each interval's adaptation costs in proportion to the hosts and groups
// it touches:
//   - The active hosts live in one vector ordered by (normalized load
//     descending, host index ascending), each host's key cached. Attaching
//     or detaching a group re-positions only that host (erase, then
//     lower_bound insert). The order is exactly what a stable sort by
//     descending load over ascending host indices gives, so first-fit among
//     equally loaded hosts picks the lowest index, and consolidation —
//     walking the list backwards for ascending load — tries the highest
//     index first.
//   - First-fit skips the hosts that are too full by their key alone. A
//     host can take a group of size `need` only if its key is at most
//     max_d (C_d (1 + 1e-9) + 1e-9 - need_d) / C_d, fits_within's limit
//     per dimension over the capacity, plus a slack that dominates the
//     rounding. The hosts above that bound are a prefix of the list, so
//     the scan starts at its partition point and returns the host a full
//     scan would.
//   - A drain trial is planned on a shadow before anything moves. The
//     shadow is a short list of the trial's targets, each with its load
//     after the groups the trial sent it (summed in trial order, as attach
//     sums them) and that load's key. First-fit merges it, in list order,
//     with the untouched hosts of the list, skipping the candidate. The
//     placement follows the trial group by group, so the constraint
//     checks see what a detach and attach per group would show them. A
//     failed trial only puts the candidate's VMs back in the placement;
//     a trial in which every group finds a host is committed by the same
//     detach and attach per group, so every load, list and key ends bit
//     for bit as moving the groups one by one leaves it. Most trials fail
//     at their first group and so touch no list at all.
//   - Predicted group sizes are computed once per plan into one
//     intervals x groups table, each interval reading its row. The table
//     is filled in blocks of 32 groups: each block sums its members into
//     group-major scratch columns (from zero, in member order), then is
//     copied into the table row by row.
//   - One adapter serves the whole plan. Each interval resets its reused
//     buffers from the previous placement: host lists in ascending group
//     order (list position is the tie order of eviction and drain trials),
//     loads summed in that order from zero, then keys and the sorted list,
//     exactly as a fresh adapter would build them.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/constraints.h"
#include "core/settings.h"
#include "core/vm.h"

namespace vmcw {

struct DynamicPlan {
  std::vector<Placement> per_interval;    ///< one per consolidation interval
  std::vector<std::size_t> migrations;    ///< vs the previous interval
  std::size_t max_active_hosts = 0;       ///< provisioning requirement
  std::size_t total_migrations = 0;
};

std::optional<DynamicPlan> plan_dynamic(std::span<const VmWorkload> vms,
                                        const StudySettings& settings,
                                        const ConstraintSet& constraints = {});

}  // namespace vmcw
