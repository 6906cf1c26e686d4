#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace vmcw {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double hashed_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                      std::uint64_t salt) noexcept {
  std::uint64_t state = seed;
  state += 0x9e3779b97f4a7c15ULL * (a + 1);
  state += 0xbf58476d1ce4e5b9ULL * (b + 1);
  state += 0x94d049bb133111ebULL * (salt + 1);
  std::uint64_t x = splitmix64(state);
  x = splitmix64(state);
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

std::uint64_t hash64(std::string_view text) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return splitmix64(h);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // Seed all 256 bits of state from splitmix64, per the xoshiro authors'
  // recommendation; guards against the all-zero state.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Lemire-style rejection-free enough for simulation purposes: use
  // 128-bit multiply to map uniformly.
  const unsigned __int128 wide =
      static_cast<unsigned __int128>((*this)()) * span;
  return lo + static_cast<std::int64_t>(wide >> 64);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) noexcept {
  return mean + sigma * normal();
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::fork() noexcept {
  return Rng((*this)());
}

Rng Rng::fork(std::string_view key) const noexcept {
  // Combine parent state with the key hash without advancing the parent.
  return Rng(s_[0] ^ rotl(s_[2], 29) ^ hash64(key));
}

}  // namespace vmcw
