// Deterministic pseudo-random number generation for the simulator.
//
// All stochastic components in this repository draw from Rng, a xoshiro256++
// generator seeded through splitmix64. Experiments construct one Rng per
// logical stream (e.g. one per server trace) via Rng::fork(), which derives
// an independent child stream; this keeps every figure and test reproducible
// bit-for-bit regardless of evaluation order.
#pragma once

#include <cstdint>
#include <string_view>

namespace vmcw {

/// splitmix64 step; used for seeding and for hashing identifiers into seeds.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless uniform draw in [0, 1) from a seed and a coordinate (a, b,
/// salt): two splitmix64 rounds over a linear combination. Pure, so the
/// same inputs always yield the same draw with no shared generator — the
/// fault plans key each fault decision on it instead of a precomputed table.
double hashed_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                      std::uint64_t salt) noexcept;

/// Stable 64-bit hash of a string (FNV-1a finished with splitmix64), used to
/// derive per-entity RNG streams from human-readable names.
std::uint64_t hash64(std::string_view text) noexcept;

/// xoshiro256++ generator. Satisfies std::uniform_random_bit_generator so it
/// can also drive <random> distributions where convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second value).
  double normal() noexcept;

  /// Normal with given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Derive an independent child generator. Deterministic: the n-th fork of
  /// a given parent state is always the same stream.
  Rng fork() noexcept;

  /// Derive a child stream keyed by a name (order-independent).
  Rng fork(std::string_view key) const noexcept;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace vmcw
