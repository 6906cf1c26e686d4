// Deployment-constraint framework (Section 2.2.4).
//
// Enterprise placements are never purely resource-driven: applications pin
// VMs to licensed hosts, cluster peers must not share a failure domain
// (anti-affinity), and chatty tiers must share one (affinity). The paper's
// tooling supports inclusion and exclusion constraints; every packer in
// this repository consults a ConstraintSet.
//
//  - affinity(a, b):       a and b must land on the same host. Affinity is
//                          transitive; packers treat each affinity group as
//                          one super-item.
//  - anti_affinity(a, b):  a and b must land on different hosts.
//  - pin(vm, host):        vm must land on exactly this host index.
//  - forbid(vm, host):     vm must not land on this host index.
//  - domain spread:        at most `cap` members of a replica group may
//                          share one failure domain (rack, power feed).
//                          Anti-affinity is the degenerate case where the
//                          domain is the host itself and cap is 1.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/placement.h"

namespace vmcw {

/// Total host -> failure-domain lookup, decoupled from the topology layer
/// so core stays free of it: an explicit table for the first hosts plus an
/// optional affine tail (domains of `tail_hosts_per_domain` consecutive
/// hosts from `tail_base` on), matching maps derived over pools whose last
/// class is unlimited. Packers may open host indices past any table a
/// caller could precompute; the tail keeps the constraint binding there.
struct DomainLookup {
  std::vector<std::int32_t> table;      ///< domain of host h for h < size()
  std::size_t tail_base = 0;            ///< first extrapolated host index
  std::int32_t tail_first_domain = -1;  ///< -1: no tail (unknown past table)
  std::size_t tail_hosts_per_domain = 1;
  /// Added to the host index before lookup — sub-problems whose host
  /// indices are shifted against the real fleet (hybrid's dynamic block)
  /// reuse the parent lookup through this offset.
  std::int32_t host_offset = 0;

  /// Domain of a host; -1 when unknown (such hosts are never constrained).
  std::int32_t domain_of(std::int32_t host) const noexcept;
};

/// One compiled spread rule: of the VMs in `vms` (one application's
/// replicas), at most `cap` may be placed on hosts sharing a domain.
struct SpreadRule {
  std::vector<std::size_t> vms;
  DomainLookup domains;
  std::size_t cap = 1;
  /// Per-domain counts of group members already committed *outside* this
  /// sub-problem (hybrid plans its two sides separately; the side planned
  /// second must count the first side's occupancy or a group split across
  /// both sides can admit up to 2x its cap in one domain). The cap is
  /// enforced jointly: preplaced + placed here + candidate <= cap.
  std::vector<std::pair<std::int32_t, std::size_t>> preplaced;
};

class ConstraintSet {
 public:
  ConstraintSet() = default;
  explicit ConstraintSet(std::size_t vm_count);

  /// Back to `vm_count` unconstrained VMs, keeping the storage: a caller
  /// that recompiles its rules every tick (the daemon) reuses one set.
  void reset(std::size_t vm_count);

  std::size_t vm_count() const noexcept { return parent_.size(); }
  bool empty() const noexcept {
    return anti_affinity_.empty() && pins_.empty() && forbidden_.empty() &&
           spread_.empty() && !has_affinity_;
  }

  void add_affinity(std::size_t a, std::size_t b);
  void add_anti_affinity(std::size_t a, std::size_t b);
  void pin(std::size_t vm, std::int32_t host);
  void forbid(std::size_t vm, std::int32_t host);
  /// At most `cap` of `vms` on hosts sharing one domain of `domains`.
  /// `preplaced` seeds per-domain baseline counts of members committed
  /// outside this sub-problem (see SpreadRule::preplaced).
  void add_domain_spread(
      std::vector<std::size_t> vms, DomainLookup domains, std::size_t cap,
      std::vector<std::pair<std::int32_t, std::size_t>> preplaced = {});
  const std::vector<SpreadRule>& spread_rules() const noexcept {
    return spread_;
  }

  /// Affinity groups as disjoint VM-index lists covering all VMs
  /// (singletons included), ordered by smallest member.
  std::vector<std::vector<std::size_t>> affinity_groups() const;

  /// Smallest member of `vm`'s affinity group (`vm` itself at or past
  /// vm_count()). add_affinity links the larger root under the smaller, so
  /// this is the union-find root. Read-only, so a single ConstraintSet can
  /// be shared by concurrent planner tasks.
  std::size_t affinity_root(std::size_t vm) const noexcept {
    if (vm >= parent_.size()) return vm;
    std::size_t root = vm;
    while (parent_[root] != root) root = parent_[root];
    return root;
  }

  /// Host this VM is pinned to, or Placement::kUnplaced.
  std::int32_t pinned_host(std::size_t vm) const noexcept;
  /// Every pin, in the order added.
  const std::vector<std::pair<std::size_t, std::int32_t>>& pins()
      const noexcept {
    return pins_;
  }

  /// May `vm` go on `host` given the partial placement so far?
  /// Checks pin, forbid, and anti-affinity against already placed VMs.
  bool allows(std::size_t vm, std::int32_t host,
              const Placement& partial) const noexcept;

  /// May the whole affinity `group` go on `host` together?
  bool allows_group(std::span<const std::size_t> group, std::int32_t host,
                    const Placement& partial) const noexcept;

  /// Validate a complete placement (used by tests and as a post-condition).
  bool satisfied_by(const Placement& placement) const noexcept;

  /// Quick structural feasibility checks (pins conflicting with affinity or
  /// anti-affinity are unsatisfiable regardless of capacity).
  bool structurally_feasible() const;

 private:
  /// Root lookup with path compression; only mutators call this, keeping
  /// chains short without ever writing under const.
  std::size_t compress_to_root(std::size_t vm);
  void ensure_size(std::size_t vm);

  /// Spread members of `spread_[r]` placed (other than `vm`) in the same
  /// domain as `host`; kNoDomain hosts never count.
  std::size_t placed_in_same_domain(const SpreadRule& rule, std::size_t vm,
                                    std::int32_t domain,
                                    const Placement& partial) const noexcept;

  std::vector<std::size_t> parent_;  // union-find, compressed on mutation
  bool has_affinity_ = false;
  std::vector<std::pair<std::size_t, std::size_t>> anti_affinity_;
  std::vector<std::pair<std::size_t, std::int32_t>> pins_;
  std::vector<std::pair<std::size_t, std::int32_t>> forbidden_;
  std::vector<SpreadRule> spread_;
  /// Per VM: indices into spread_ of the rules containing it, so the hot
  /// allows() path touches only the (few, small) rules a VM is part of.
  std::vector<std::vector<std::uint32_t>> spread_of_vm_;
};

}  // namespace vmcw
