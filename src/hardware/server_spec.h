// Physical-server models.
//
// The paper measures CPU demand in IDEAS RPE2 units (a proprietary relative
// server-performance benchmark) and memory in MB. We keep RPE2 as the
// abstract compute unit: a server's ServerSpec carries its RPE2 rating and
// installed memory, and all demand/capacity arithmetic happens in
// (RPE2, MB) pairs. The reference consolidation target is the IBM HS23
// "Elite" blade the paper cites: 2 sockets, 128 GB, RPE2/GB ratio of 160.
#pragma once

#include <algorithm>
#include <string>

namespace vmcw {

struct ServerSpec {
  std::string model;      ///< Human-readable model name.
  double cpu_rpe2 = 0;    ///< Compute capacity in RPE2 units.
  double memory_mb = 0;   ///< Installed memory in MB.
  double idle_watts = 0;  ///< Power draw at 0% utilization.
  double peak_watts = 0;  ///< Power draw at 100% utilization.
  double rack_units = 1;  ///< Rack space occupied (1U equivalents).
  double hardware_cost = 0;  ///< Acquisition cost (arbitrary currency units).

  /// RPE2 per GB of installed memory — the paper's "CPU to memory ratio".
  /// The HS23 Elite reference value is 160.
  double rpe2_per_gb() const noexcept {
    return memory_mb > 0 ? cpu_rpe2 / (memory_mb / 1024.0) : 0.0;
  }

  bool operator==(const ServerSpec&) const = default;
};

/// 2-D resource vector (the only resources a VM owns in the paper's model —
/// storage is SAN-attached, network/disk enter as host constraints only).
struct ResourceVector {
  double cpu_rpe2 = 0;
  double memory_mb = 0;

  ResourceVector& operator+=(const ResourceVector& o) noexcept {
    cpu_rpe2 += o.cpu_rpe2;
    memory_mb += o.memory_mb;
    return *this;
  }
  ResourceVector& operator-=(const ResourceVector& o) noexcept {
    cpu_rpe2 -= o.cpu_rpe2;
    memory_mb -= o.memory_mb;
    return *this;
  }
  friend ResourceVector operator+(ResourceVector a,
                                  const ResourceVector& b) noexcept {
    return a += b;
  }
  friend ResourceVector operator-(ResourceVector a,
                                  const ResourceVector& b) noexcept {
    return a -= b;
  }
  friend ResourceVector operator*(ResourceVector a, double k) noexcept {
    a.cpu_rpe2 *= k;
    a.memory_mb *= k;
    return a;
  }

  /// True when both dimensions fit inside `capacity` (<=, with a tiny
  /// relative and absolute slack): demand sums are accumulated in floating
  /// point, so exact <= comparisons would spuriously reject placements that
  /// are mathematically tight. Inline, so every host check stays inlined.
  bool fits_within(const ResourceVector& capacity) const noexcept {
    constexpr double kEpsilon = 1e-9;
    return cpu_rpe2 <= capacity.cpu_rpe2 * (1.0 + kEpsilon) + kEpsilon &&
           memory_mb <= capacity.memory_mb * (1.0 + kEpsilon) + kEpsilon;
  }

  bool operator==(const ResourceVector&) const = default;
};

/// The larger of `load`'s two shares of `capacity` (a zero capacity
/// dimension counts 0): the one-number size the packers order VMs and hosts
/// by. Inline, so the planners' hot loops keep it inlined.
inline double normalized_load(const ResourceVector& load,
                              const ResourceVector& capacity) noexcept {
  const double cpu =
      capacity.cpu_rpe2 > 0 ? load.cpu_rpe2 / capacity.cpu_rpe2 : 0.0;
  const double mem =
      capacity.memory_mb > 0 ? load.memory_mb / capacity.memory_mb : 0.0;
  return std::max(cpu, mem);
}

}  // namespace vmcw
