// Indexed first-fit: the free-capacity index behind O(log n) admission.
//
// Every packer in this repository places by first-fit: the lowest-indexed
// host where capacity and constraints allow. The linear scan behind that
// rule is what caps fleet size — at 19k hosts the daemon controller spent
// ~80 ms per tick walking hosts (bench/baselines/BENCH_daemon_throughput),
// and the mapping study on distributed consolidation (PAPERS.md,
// arXiv 1803.03094) names centralized full-scan packers as *the*
// scalability bottleneck. A CapacityIndex replaces the scan with a segment
// tree over host indices: each leaf holds one host's free capacity (per
// resource), each internal node the component-wise maximum over its
// subtree, so "first host at index >= from with free_cpu >= c and
// free_mem >= m" resolves by descending the tree — O(log n) typical,
// pruning whole subtrees where either component's maximum falls short.
//
// Placements are provably identical to the linear scan, by construction:
//
//  - The index is only a *filter*. A candidate it returns is re-tested by
//    the caller with the exact ResourceVector::fits_within predicate (and
//    the exclude/frozen/constraint checks), so a false positive merely
//    advances the search — precisely what the linear scan does when it
//    rejects a host.
//  - False negatives are excluded by slack: each leaf's stored free
//    capacity is (capacity - load) plus a slack strictly larger than both
//    fits_within's relative epsilon and the floating-point error of the
//    subtraction, so any host the exact predicate would accept passes the
//    filter. Hosts the index skips are hosts the linear scan would have
//    rejected on capacity.
//
// The caller owns synchronization: after any change to a host's load it
// calls set_load(host, authoritative_load). The leaf is recomputed from the
// capacity and the caller's own accumulator (a single subtraction), so the
// index cannot drift from the true load no matter how many place/evict
// cycles a host sees.
//
// The index is deliberately dependency-light (hardware/ only) and
// header-only, so core's admission path and the PCP packer can use it
// without a link cycle onto the scale library.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hardware/server_spec.h"

namespace vmcw {

class CapacityIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  CapacityIndex() = default;

  std::size_t size() const noexcept { return count_; }

  /// Append one host with zero load (free = its full capacity).
  void push_host(const ResourceVector& capacity) {
    if (count_ == slots_) regrow(count_ == 0 ? 64 : count_ * 2);
    const std::size_t host = count_++;
    capacity_[host] = capacity;
    load_[host] = ResourceVector{};
    write_leaf(host);
  }

  /// Refill the index in place over hosts [0, loads.size()): host h has
  /// capacity `capacity_of(h)` and load `loads[h]`. Leaves are written
  /// once and the inner nodes bottom-up, O(n) against push_host + set_load
  /// per host (each O(log n)); storage is reused, so a caller refilling
  /// every tick allocates only when the fleet outgrows every earlier one.
  /// first_fit then answers exactly as on an index built host by host.
  template <typename CapacityOf>
  void assign(std::span<const ResourceVector> loads, CapacityOf&& capacity_of) {
    if (loads.size() > slots_) regrow(loads.size());
    count_ = loads.size();
    for (std::size_t host = 0; host < count_; ++host) {
      capacity_[host] = capacity_of(host);
      load_[host] = loads[host];
      tree_[slots_ + host] = leaf(host);
    }
    for (std::size_t host = count_; host < slots_; ++host)
      tree_[slots_ + host] = Free{};
    for (std::size_t node = slots_; node-- > 1;) pull(node);
  }

  /// Re-derive host's free capacity from the caller's authoritative load
  /// accumulator. O(log n).
  void set_load(std::size_t host, const ResourceVector& load) {
    load_[host] = load;
    write_leaf(host);
  }

  /// First host index >= `from` whose free capacity covers `need` in both
  /// dimensions (up to the slack — callers re-test exactly), or npos.
  /// O(log n) when a nearby host fits; degrades gracefully toward the
  /// linear scan it replaces when almost nothing does.
  std::size_t first_fit(const ResourceVector& need,
                        std::size_t from = 0) const noexcept {
    if (from >= count_) return npos;
    return descend(1, 0, slots_, from, need);
  }

  /// The slack added to each leaf: strictly dominates fits_within's
  /// relative epsilon (1e-9) and the rounding error of capacity - load, so
  /// the filter can never reject a host the exact predicate would accept.
  static double slack_for(double capacity) noexcept {
    return capacity * 1e-8 + 1e-6;
  }

 private:
  struct Free {
    double cpu = -1.0;  ///< unused slots never match (need >= 0 always)
    double mem = -1.0;
  };

  Free leaf(std::size_t host) const noexcept {
    const ResourceVector& cap = capacity_[host];
    const ResourceVector& load = load_[host];
    return Free{cap.cpu_rpe2 - load.cpu_rpe2 + slack_for(cap.cpu_rpe2),
                cap.memory_mb - load.memory_mb + slack_for(cap.memory_mb)};
  }

  /// Inner node = component-wise maximum of its two children.
  void pull(std::size_t node) noexcept {
    const Free& a = tree_[node * 2];
    const Free& b = tree_[node * 2 + 1];
    tree_[node].cpu = a.cpu > b.cpu ? a.cpu : b.cpu;
    tree_[node].mem = a.mem > b.mem ? a.mem : b.mem;
  }

  void write_leaf(std::size_t host) noexcept {
    tree_[slots_ + host] = leaf(host);
    for (std::size_t node = (slots_ + host) / 2; node >= 1; node /= 2)
      pull(node);
  }

  std::size_t descend(std::size_t node, std::size_t lo, std::size_t hi,
                      std::size_t from,
                      const ResourceVector& need) const noexcept {
    if (hi <= from || lo >= count_) return npos;
    const Free& f = tree_[node];
    if (f.cpu < need.cpu_rpe2 || f.mem < need.memory_mb) return npos;
    if (hi - lo == 1) return lo;
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::size_t left = descend(node * 2, lo, mid, from, need);
    if (left != npos) return left;
    return descend(node * 2 + 1, mid, hi, from, need);
  }

  void regrow(std::size_t min_slots) {
    std::size_t slots = 1;
    while (slots < min_slots) slots *= 2;
    tree_.assign(2 * slots, Free{});
    slots_ = slots;
    capacity_.resize(slots);
    load_.resize(slots);
    // Rebuild leaves bottom-up: write_leaf refreshes every ancestor, so
    // seeding each leaf once restores the whole tree.
    for (std::size_t host = 0; host < count_; ++host) write_leaf(host);
  }

  std::vector<Free> tree_;  ///< 1-based heap layout; leaves at slots_ + i
  std::vector<ResourceVector> capacity_;  ///< per slot; hosts < count_ live
  std::vector<ResourceVector> load_;
  std::size_t slots_ = 0;
  std::size_t count_ = 0;
};

}  // namespace vmcw
