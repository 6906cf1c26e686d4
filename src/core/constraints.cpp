#include "core/constraints.h"

#include <algorithm>

namespace vmcw {

std::int32_t DomainLookup::domain_of(std::int32_t host) const noexcept {
  const std::int64_t shifted =
      static_cast<std::int64_t>(host) + static_cast<std::int64_t>(host_offset);
  if (shifted < 0) return -1;
  const auto h = static_cast<std::size_t>(shifted);
  if (h < table.size()) return table[h];
  if (tail_first_domain < 0 || h < tail_base) return -1;
  const std::size_t stride = tail_hosts_per_domain > 0 ? tail_hosts_per_domain : 1;
  return tail_first_domain + static_cast<std::int32_t>((h - tail_base) / stride);
}

ConstraintSet::ConstraintSet(std::size_t vm_count) { reset(vm_count); }

void ConstraintSet::reset(std::size_t vm_count) {
  parent_.resize(vm_count);
  for (std::size_t i = 0; i < vm_count; ++i) parent_[i] = i;
  has_affinity_ = false;
  anti_affinity_.clear();
  pins_.clear();
  forbidden_.clear();
  spread_.clear();
  for (auto& rules : spread_of_vm_) rules.clear();
}

void ConstraintSet::ensure_size(std::size_t vm) {
  while (parent_.size() <= vm) parent_.push_back(parent_.size());
}

std::size_t ConstraintSet::compress_to_root(std::size_t vm) {
  const std::size_t root = affinity_root(vm);
  while (parent_[vm] != root) {
    const std::size_t next = parent_[vm];
    parent_[vm] = root;
    vm = next;
  }
  return root;
}

void ConstraintSet::add_affinity(std::size_t a, std::size_t b) {
  ensure_size(std::max(a, b));
  const std::size_t ra = compress_to_root(a);
  const std::size_t rb = compress_to_root(b);
  if (ra != rb) parent_[std::max(ra, rb)] = std::min(ra, rb);
  has_affinity_ = true;
}

void ConstraintSet::add_anti_affinity(std::size_t a, std::size_t b) {
  ensure_size(std::max(a, b));
  anti_affinity_.emplace_back(a, b);
}

void ConstraintSet::pin(std::size_t vm, std::int32_t host) {
  ensure_size(vm);
  pins_.emplace_back(vm, host);
}

void ConstraintSet::forbid(std::size_t vm, std::int32_t host) {
  ensure_size(vm);
  forbidden_.emplace_back(vm, host);
}

void ConstraintSet::add_domain_spread(
    std::vector<std::size_t> vms, DomainLookup domains, std::size_t cap,
    std::vector<std::pair<std::int32_t, std::size_t>> preplaced) {
  if (vms.empty()) return;
  const std::size_t max_vm = *std::max_element(vms.begin(), vms.end());
  ensure_size(max_vm);
  if (spread_of_vm_.size() <= max_vm) spread_of_vm_.resize(max_vm + 1);
  const auto rule_index = static_cast<std::uint32_t>(spread_.size());
  for (const std::size_t vm : vms) spread_of_vm_[vm].push_back(rule_index);
  spread_.push_back(SpreadRule{std::move(vms), std::move(domains), cap,
                               std::move(preplaced)});
}

namespace {

/// Baseline members committed to `domain` outside this sub-problem.
std::size_t preplaced_in(const SpreadRule& rule, std::int32_t domain) noexcept {
  for (const auto& [d, count] : rule.preplaced)
    if (d == domain) return count;
  return 0;
}

}  // namespace

std::vector<std::vector<std::size_t>> ConstraintSet::affinity_groups() const {
  // A root is its group's smallest member, so walking VMs in order opens
  // every group at its root before any other member appends to it: groups
  // come out ordered by smallest member, members ascending.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> group_of(parent_.size());
  for (std::size_t vm = 0; vm < parent_.size(); ++vm) {
    const std::size_t root = affinity_root(vm);
    if (root == vm) {
      group_of[vm] = groups.size();
      groups.push_back({vm});
    } else {
      groups[group_of[root]].push_back(vm);
    }
  }
  return groups;
}

std::int32_t ConstraintSet::pinned_host(std::size_t vm) const noexcept {
  for (const auto& [pinned_vm, host] : pins_)
    if (pinned_vm == vm) return host;
  return Placement::kUnplaced;
}

bool ConstraintSet::allows(std::size_t vm, std::int32_t host,
                           const Placement& partial) const noexcept {
  const std::int32_t pin_host = pinned_host(vm);
  if (pin_host != Placement::kUnplaced && pin_host != host) return false;
  for (const auto& [fvm, fhost] : forbidden_)
    if (fvm == vm && fhost == host) return false;
  for (const auto& [a, b] : anti_affinity_) {
    const std::size_t other = a == vm ? b : (b == vm ? a : vm);
    if (other == vm) continue;
    if (other < partial.vm_count() && partial.is_placed(other) &&
        partial.host_of(other) == host)
      return false;
  }
  if (vm < spread_of_vm_.size()) {
    for (const std::uint32_t r : spread_of_vm_[vm]) {
      const SpreadRule& rule = spread_[r];
      const std::int32_t d = rule.domains.domain_of(host);
      if (d < 0) continue;  // unknown domain: unconstrained
      if (preplaced_in(rule, d) + placed_in_same_domain(rule, vm, d, partial) +
              1 >
          rule.cap)
        return false;
    }
  }
  return true;
}

std::size_t ConstraintSet::placed_in_same_domain(
    const SpreadRule& rule, std::size_t vm, std::int32_t domain,
    const Placement& partial) const noexcept {
  std::size_t members = 0;
  for (const std::size_t other : rule.vms) {
    if (other == vm || other >= partial.vm_count() ||
        !partial.is_placed(other))
      continue;
    if (rule.domains.domain_of(partial.host_of(other)) == domain) ++members;
  }
  return members;
}

bool ConstraintSet::allows_group(std::span<const std::size_t> group,
                                 std::int32_t host,
                                 const Placement& partial) const noexcept {
  for (std::size_t vm : group)
    if (!allows(vm, host, partial)) return false;
  // Anti-affinity inside the group itself (conflicts with affinity).
  for (const auto& [a, b] : anti_affinity_) {
    const bool a_in = std::find(group.begin(), group.end(), a) != group.end();
    const bool b_in = std::find(group.begin(), group.end(), b) != group.end();
    if (a_in && b_in) return false;
  }
  // Domain caps must hold with the whole group landing at once: allows()
  // above admits each member singly, but co-placed members count together.
  for (const SpreadRule& rule : spread_) {
    std::size_t in_group = 0;
    for (const std::size_t vm : rule.vms)
      in_group += std::find(group.begin(), group.end(), vm) != group.end();
    if (in_group == 0) continue;  // the group cannot change this rule
    const std::int32_t d = rule.domains.domain_of(host);
    if (d < 0) continue;
    std::size_t members = in_group + preplaced_in(rule, d);
    for (const std::size_t vm : rule.vms) {
      if (std::find(group.begin(), group.end(), vm) != group.end()) continue;
      if (vm < partial.vm_count() && partial.is_placed(vm) &&
          rule.domains.domain_of(partial.host_of(vm)) == d)
        ++members;
    }
    if (members > rule.cap) return false;
  }
  return true;
}

bool ConstraintSet::satisfied_by(const Placement& placement) const noexcept {
  for (std::size_t vm = 0; vm < parent_.size(); ++vm) {
    if (vm >= placement.vm_count() || !placement.is_placed(vm)) return false;
    const std::size_t root = affinity_root(vm);
    if (root != vm && placement.host_of(vm) != placement.host_of(root))
      return false;
  }
  for (const auto& [a, b] : anti_affinity_) {
    if (a < placement.vm_count() && b < placement.vm_count() &&
        placement.is_placed(a) && placement.is_placed(b) &&
        placement.host_of(a) == placement.host_of(b))
      return false;
  }
  for (const auto& [vm, host] : pins_) {
    if (vm >= placement.vm_count() || placement.host_of(vm) != host)
      return false;
  }
  for (const auto& [vm, host] : forbidden_) {
    if (vm < placement.vm_count() && placement.host_of(vm) == host)
      return false;
  }
  for (const SpreadRule& rule : spread_) {
    // Count members per domain (rules are application-sized: O(n^2) here
    // is cheap and keeps this validation allocation-light).
    for (const std::size_t vm : rule.vms) {
      if (vm >= placement.vm_count() || !placement.is_placed(vm)) continue;
      const std::int32_t d = rule.domains.domain_of(placement.host_of(vm));
      if (d < 0) continue;
      std::size_t members = preplaced_in(rule, d);
      for (const std::size_t other : rule.vms) {
        if (other >= placement.vm_count() || !placement.is_placed(other))
          continue;
        members +=
            rule.domains.domain_of(placement.host_of(other)) == d ? 1 : 0;
      }
      if (members > rule.cap) return false;
    }
  }
  return true;
}

bool ConstraintSet::structurally_feasible() const {
  // Two members of one affinity group pinned to different hosts.
  for (const auto& [vm_a, host_a] : pins_) {
    for (const auto& [vm_b, host_b] : pins_) {
      if (affinity_root(vm_a) == affinity_root(vm_b) && host_a != host_b)
        return false;
    }
    // A pin to a host the same VM is forbidden from.
    for (const auto& [fvm, fhost] : forbidden_)
      if (fvm == vm_a && fhost == host_a) return false;
  }
  // Anti-affinity within one affinity group.
  for (const auto& [a, b] : anti_affinity_)
    if (affinity_root(a) == affinity_root(b)) return false;
  // A zero-cap spread rule forbids its members everywhere a domain is
  // known; an affinity group larger than a rule's cap can never co-locate.
  for (const SpreadRule& rule : spread_) {
    if (rule.cap == 0) return false;
    for (const std::size_t vm : rule.vms) {
      std::size_t same_affinity = 0;
      for (const std::size_t other : rule.vms)
        same_affinity += affinity_root(other) == affinity_root(vm) ? 1 : 0;
      if (same_affinity > rule.cap) return false;
    }
    // Pins forcing more members into one domain than the cap allows.
    for (const std::size_t vm : rule.vms) {
      const std::int32_t host = pinned_host(vm);
      if (host == Placement::kUnplaced) continue;
      const std::int32_t d = rule.domains.domain_of(host);
      if (d < 0) continue;
      std::size_t pinned_here = preplaced_in(rule, d);
      for (const std::size_t other : rule.vms) {
        const std::int32_t other_host = pinned_host(other);
        if (other_host != Placement::kUnplaced &&
            rule.domains.domain_of(other_host) == d)
          ++pinned_here;
      }
      if (pinned_here > rule.cap) return false;
    }
  }
  return true;
}

}  // namespace vmcw
