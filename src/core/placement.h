// VM-to-host assignment.
//
// Hosts are identical target blades indexed 0, 1, 2, ...; a Placement maps
// each VM index to a host index (or kUnplaced). Dynamic consolidation
// produces one Placement per consolidation interval; the difference between
// consecutive placements is the set of live migrations that interval
// requires.
#pragma once

#include <cstdint>
#include <vector>

namespace vmcw {

class Placement {
 public:
  static constexpr std::int32_t kUnplaced = -1;

  Placement() = default;
  explicit Placement(std::size_t vm_count);

  std::size_t vm_count() const noexcept { return host_of_.size(); }

  /// Grow or shrink to `vm_count` VMs; VMs past the old count are unplaced.
  void resize(std::size_t vm_count) { host_of_.resize(vm_count, kUnplaced); }

  std::int32_t host_of(std::size_t vm) const noexcept { return host_of_[vm]; }
  bool is_placed(std::size_t vm) const noexcept {
    return host_of_[vm] != kUnplaced;
  }

  void assign(std::size_t vm, std::int32_t host) noexcept {
    host_of_[vm] = host;
  }
  void unassign(std::size_t vm) noexcept { host_of_[vm] = kUnplaced; }

  /// Number of VMs with an assignment.
  std::size_t placed_count() const noexcept;

  /// 1 + highest host index in use (0 if nothing is placed). Host index
  /// space may contain holes after dynamic consolidation powers hosts down.
  std::size_t host_index_bound() const noexcept;

  /// Number of distinct hosts that have at least one VM.
  std::size_t active_host_count() const noexcept;

  /// VM lists grouped by host; size = host_index_bound().
  std::vector<std::vector<std::size_t>> vms_by_host() const;

  /// Live migrations needed to go from `from` to `to`: VMs placed in both
  /// whose host changed. (Newly placed / removed VMs are not migrations.)
  static std::size_t migrations_between(const Placement& from,
                                        const Placement& to) noexcept;

  bool operator==(const Placement&) const = default;

 private:
  std::vector<std::int32_t> host_of_;
};

}  // namespace vmcw
