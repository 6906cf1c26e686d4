// Open-addressing map from an external VM id to a small integer (the
// controller's per-VM handle).
//
// Linear probing over a power-of-two bucket array kept at most half full,
// with Fibonacci hashing of the 64-bit id; erase shifts the rest of the
// probe run back, so there are no tombstones and a lookup never walks past
// the run its id hashes into. There is no iteration API, so no decision
// can come to depend on bucket order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vmcw::service {

class IdTable {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Value of `id`, or kNone.
  std::uint32_t find(std::uint64_t id) const noexcept {
    if (buckets_.empty()) return kNone;
    for (std::size_t b = home(id);; b = (b + 1) & mask_) {
      const Bucket& bucket = buckets_[b];
      if (bucket.value == kNone) return kNone;
      if (bucket.id == id) return bucket.value;
    }
  }

  /// Map `id` to `value`, replacing any earlier value. `value` != kNone.
  void assign(std::uint64_t id, std::uint32_t value) {
    if (2 * (used_ + 1) > buckets_.size()) grow();
    for (std::size_t b = home(id);; b = (b + 1) & mask_) {
      Bucket& bucket = buckets_[b];
      if (bucket.value == kNone) {
        bucket = Bucket{id, value};
        ++used_;
        return;
      }
      if (bucket.id == id) {
        bucket.value = value;
        return;
      }
    }
  }

  /// Forget `id` if present.
  void erase(std::uint64_t id) noexcept {
    if (buckets_.empty()) return;
    std::size_t hole = home(id);
    for (;; hole = (hole + 1) & mask_) {
      if (buckets_[hole].value == kNone) return;
      if (buckets_[hole].id == id) break;
    }
    --used_;
    // Backward shift: walk the rest of the run and move back every entry
    // whose home does not lie cyclically in (hole, b].
    for (std::size_t b = (hole + 1) & mask_; buckets_[b].value != kNone;
         b = (b + 1) & mask_) {
      const std::size_t want = home(buckets_[b].id);
      const bool stays = hole < b ? (hole < want && want <= b)
                                  : (hole < want || want <= b);
      if (stays) continue;
      buckets_[hole] = buckets_[b];
      hole = b;
    }
    buckets_[hole].value = kNone;
  }

  /// Forget every id, keeping the buckets.
  void clear() noexcept {
    for (Bucket& bucket : buckets_) bucket.value = kNone;
    used_ = 0;
  }

  std::size_t size() const noexcept { return used_; }

 private:
  struct Bucket {
    std::uint64_t id = 0;
    std::uint32_t value = kNone;
  };

  std::size_t home(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void grow() {
    std::vector<Bucket> old = std::move(buckets_);
    const std::size_t count = old.empty() ? 16 : old.size() * 2;
    buckets_.assign(count, Bucket{});
    mask_ = count - 1;
    shift_ = 64;
    for (std::size_t c = count; c > 1; c /= 2) --shift_;
    used_ = 0;
    for (const Bucket& bucket : old)
      if (bucket.value != kNone) assign(bucket.id, bucket.value);
  }

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t used_ = 0;
};

}  // namespace vmcw::service
