// Single-VM admission and threshold-triggered partial re-planning.
//
// Before this layer existed, admission logic — "where does one more VM
// land?" — was only reachable through a full re-pack: ffd_pack owned the
// first-fit loop, so any caller with an *existing* placement (the online
// consolidation daemon, an operator asking "can I add this VM?") had to
// re-pack the estate to find out. The primitives here operate on explicit
// incremental state (a Placement plus per-host loads) and are shared by the
// batch packers (ffd_pack routes every group through admit_group) and the
// service-layer controller, so both give the same answer by construction.
//
// All loops are index-ordered and all state is caller-owned: results are a
// pure function of the inputs, bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/constraints.h"
#include "core/host_pool.h"
#include "core/placement.h"
#include "hardware/server_spec.h"

namespace vmcw {

class CapacityIndex;  // core/capacity_index.h

/// Knobs for admit_one / admit_group beyond capacity and constraints.
struct AdmissionOptions {
  /// Host excluded as a target (e.g. the source of an eviction).
  std::int32_t exclude_host = -1;
  /// Hosts with a nonzero entry are never targets (e.g. hosts frozen in
  /// degraded mode because their telemetry went stale). Indices past the
  /// span's size are unrestricted.
  std::span<const std::uint8_t> frozen_hosts;
  /// Allow opening hosts beyond host_load.size() (up to the pool bound).
  /// Draining turns this off: relocating onto a fresh host frees nothing.
  bool open_new_hosts = true;
  /// Optional free-capacity index over exactly the hosts in `host_load`
  /// (index->size() == host_load.size(), leaves derived from the same
  /// bound-scaled capacities and loads). When set, candidate hosts are
  /// enumerated in O(log n) through the index instead of a linear scan —
  /// every candidate is still re-tested with the exact capacity/constraint
  /// predicates, so placements are identical. Admission keeps the index in
  /// sync with every host_load mutation it makes (including opened hosts).
  CapacityIndex* index = nullptr;
};

/// First-fit an affinity group (a single VM is the singleton group) into
/// the lowest-indexed host where capacity and constraints allow, opening
/// hosts from the pool as needed. On success `host_load` and `placement`
/// are updated and the host index returned; on failure both are unchanged
/// except that `host_load` may have grown by empty trailing hosts probed
/// along the way (they carry zero load and are reused by later calls).
/// Returns std::nullopt when no host in the pool can take the group.
std::optional<std::size_t> admit_group(std::span<const std::size_t> group,
                                       const ResourceVector& group_size,
                                       std::vector<ResourceVector>& host_load,
                                       const HostPool& pool,
                                       double utilization_bound,
                                       const ConstraintSet& constraints,
                                       Placement& placement,
                                       const AdmissionOptions& options = {});

/// Single-VM admission: the daemon's arrival path and the unit the batch
/// packers are built from. Allocates nothing unless it opens a host.
std::optional<std::size_t> admit_one(std::size_t vm,
                                     const ResourceVector& size,
                                     std::vector<ResourceVector>& host_load,
                                     const HostPool& pool,
                                     double utilization_bound,
                                     const ConstraintSet& constraints,
                                     Placement& placement,
                                     const AdmissionOptions& options = {});

/// Pinned admission: the group goes on exactly `host` or nowhere.
/// `host_load` is extended up to the pin when needed. When `index` is set
/// it is kept in sync (opened hosts pushed, the pinned host's load
/// refreshed on success).
bool admit_group_at(std::span<const std::size_t> group,
                    const ResourceVector& group_size, std::size_t host,
                    std::vector<ResourceVector>& host_load,
                    const HostPool& pool, double utilization_bound,
                    const ConstraintSet& constraints, Placement& placement,
                    CapacityIndex* index = nullptr);

/// The affinity groups of a ConstraintSet extended to cover all `n` VMs
/// (uncovered VMs become singletons), with out-of-range members dropped.
/// The common preamble of every packer/planner that treats affinity groups
/// as atomic items.
std::vector<std::vector<std::size_t>> placement_groups(
    std::size_t n, const ConstraintSet& constraints);

/// One relocation proposed by repair_and_drain.
struct PlacementMove {
  std::size_t vm = 0;
  std::int32_t from = Placement::kUnplaced;
  std::int32_t to = Placement::kUnplaced;
};

struct RepairOutcome {
  /// Evictions that resolved overloaded hosts, in the order committed.
  std::vector<PlacementMove> repair_moves;
  /// Whole-host drains of underutilized hosts, in the order committed.
  std::vector<PlacementMove> drain_moves;
  /// Hosts still violating the bound (only pinned/grouped VMs remained, or
  /// no target had room). The caller decides what a stuck host means —
  /// the daemon emits hold-with-reason decisions for them.
  std::vector<std::size_t> unresolved_hosts;
  /// Hosts emptied by the drain phase.
  std::vector<std::size_t> drained_hosts;
};

/// The storage repair_and_drain works in: the outcome of the latest call
/// and every per-call scratch array. A caller that re-plans once per tick
/// (the daemon) keeps one, so a call allocates only while the fleet grows
/// past every earlier one. Contents between calls are meaningless except
/// `outcome`.
struct RepairWorkspace {
  RepairOutcome outcome;

  // Movability per VM: affinity-group member counts per root, then flags.
  std::vector<std::uint32_t> members;
  std::vector<std::uint8_t> movable;
  // Residents per host as a count-offset array over the hosts the call
  // scans: host h's residents at entry are base[offset[h], offset[h+1]) in
  // ascending VM order. A VM the call moves gets an entry appended to its
  // target's chain (head/tail/next, in move order) and `moved[vm]` names
  // that entry (1-based; 0 = never moved), which retires every older one.
  struct Appended {
    std::size_t vm = 0;
    std::uint32_t next = 0;  ///< next entry of the same host; 0 = none
  };
  std::vector<std::size_t> offset;
  std::vector<std::size_t> base;
  std::vector<std::uint32_t> moved;
  std::vector<Appended> appended;      ///< entry e at appended[e - 1]
  std::vector<std::uint32_t> head;     ///< per host; 0 = empty chain
  std::vector<std::uint32_t> tail;
  std::vector<std::uint32_t> residents;  ///< live resident count per host
  // Threshold classes and the drain phase's target filter.
  std::vector<std::uint8_t> overloaded;
  std::vector<std::uint8_t> drainable;
  std::vector<std::uint8_t> drain_frozen;
  std::vector<std::pair<double, std::size_t>> order;  ///< (key, position)
  std::vector<std::size_t> order_vms;
  std::vector<PlacementMove> trial;
};

/// Threshold-triggered partial re-plan: instead of re-packing the estate,
/// visit only hosts that cross a threshold.
///
///  - Repair: hosts whose load exceeds their capacity (scaled by
///    `utilization_bound`) evict VMs — the smallest VM whose departure
///    resolves the overload, else the largest movable one — and each
///    evictee is re-admitted through admit_one (excluding the source).
///  - Drain: hosts whose normalized load is below `drain_below` (> 0) are
///    emptied entirely onto other non-empty hosts when every resident VM
///    relocates; otherwise the host is left untouched (trial + rollback).
///
/// A host's residents are visited in ascending VM order, then the VMs the
/// call moved onto it, in the order they arrived.
///
/// Only movable VMs participate: not pinned, and the only member of their
/// affinity group below n = placement.vm_count() (moving one member of a
/// group would tear it; groups stay where the batch planner put them).
/// That is the group placement_groups(n, constraints) builds: members at
/// or past n are dropped and VMs past constraints.vm_count() are
/// singletons. An affinity root is its group's smallest member, so every
/// VM below n has its root below n, and one pass counting members per
/// root decides every VM without building a group.
///
/// Hosts with a nonzero `frozen_hosts` entry are skipped as sources and
/// never receive VMs — the daemon freezes hosts whose telemetry went
/// stale. `sizes[vm]` is each VM's current demand estimate; `placement`
/// and `host_load` must agree and are updated in place. An optional
/// `index` (in sync with `host_load` on entry, see AdmissionOptions::index)
/// accelerates every re-admission's target search and is kept in sync with
/// each eviction/relocation/rollback. The result is `workspace.outcome`.
const RepairOutcome& repair_and_drain(
    RepairWorkspace& workspace, std::span<const ResourceVector> sizes,
    Placement& placement, std::vector<ResourceVector>& host_load,
    const HostPool& pool, double utilization_bound, double drain_below,
    const ConstraintSet& constraints,
    std::span<const std::uint8_t> frozen_hosts = {},
    CapacityIndex* index = nullptr);

}  // namespace vmcw
