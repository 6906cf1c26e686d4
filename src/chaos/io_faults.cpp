#include "chaos/io_faults.h"

#include <algorithm>

#include "util/rng.h"

namespace vmcw {

namespace {

double clamp_rate(double r) noexcept {
  return std::clamp(r, 0.0, 1.0);
}

constexpr std::uint64_t kSaltDisconnect = 0xD15Cull;
constexpr std::uint64_t kSaltCorrupt = 0xC0FFull;
constexpr std::uint64_t kSaltCorruptByte = 0xB17Eull;
constexpr std::uint64_t kSaltSplit = 0x5917ull;
constexpr std::uint64_t kSaltSplitPoint = 0x59F7ull;
constexpr std::uint64_t kSaltStall = 0x57A1ull;

}  // namespace

IoFaultSpec IoFaultSpec::validated() const noexcept {
  IoFaultSpec v = *this;
  v.disconnect_rate = clamp_rate(disconnect_rate);
  v.corrupt_rate = clamp_rate(corrupt_rate);
  v.partial_write_rate = clamp_rate(partial_write_rate);
  v.fsync_stall_rate = clamp_rate(fsync_stall_rate);
  v.fsync_stall_seconds = std::max(fsync_stall_seconds, 0.0);
  v.fsync_stall_appends = std::max<std::size_t>(fsync_stall_appends, 1);
  return v;
}

IoFaultPlan IoFaultPlan::generate(const IoFaultSpec& raw_spec,
                                  std::uint64_t seed) {
  IoFaultPlan plan;
  plan.spec_ = raw_spec.validated();
  const Rng root(seed);  // vmcw-lint: allow(rng-construction) root of the I/O fault plan
  plan.seed_ = root.fork("chaos/io")();
  plan.hashed_ = true;
  return plan;
}

bool IoFaultPlan::any() const noexcept {
  return (hashed_ && spec_.any()) || !forced_disconnects_.empty() ||
         !forced_corruptions_.empty() || !forced_stalls_.empty();
}

bool IoFaultPlan::disconnect_after(std::uint64_t collector,
                                   std::uint64_t message) const noexcept {
  for (const auto& [c, m] : forced_disconnects_)
    if (c == collector && m == message) return true;
  if (!hashed_ || spec_.disconnect_rate <= 0.0) return false;
  return hashed_uniform(seed_, collector, message, kSaltDisconnect) <
         spec_.disconnect_rate;
}

bool IoFaultPlan::corrupt_message(std::uint64_t collector,
                                  std::uint64_t message) const noexcept {
  for (const auto& [c, m] : forced_corruptions_)
    if (c == collector && m == message) return true;
  if (!hashed_ || spec_.corrupt_rate <= 0.0) return false;
  return hashed_uniform(seed_, collector, message, kSaltCorrupt) <
         spec_.corrupt_rate;
}

std::size_t IoFaultPlan::corrupt_byte(std::uint64_t collector,
                                      std::uint64_t message,
                                      std::size_t size) const noexcept {
  if (size == 0) return 0;
  const double u = hashed_uniform(seed_, collector, message, kSaltCorruptByte);
  return static_cast<std::size_t>(u * static_cast<double>(size)) % size;
}

bool IoFaultPlan::split_write(std::uint64_t collector,
                              std::uint64_t message) const noexcept {
  if (!hashed_ || spec_.partial_write_rate <= 0.0) return false;
  return hashed_uniform(seed_, collector, message, kSaltSplit) <
         spec_.partial_write_rate;
}

std::size_t IoFaultPlan::split_point(std::uint64_t collector,
                                     std::uint64_t message,
                                     std::size_t size) const noexcept {
  if (size < 2) return size;
  const double u = hashed_uniform(seed_, collector, message, kSaltSplitPoint);
  const std::size_t span = size - 1;  // break in [1, size-1]
  return 1 + static_cast<std::size_t>(u * static_cast<double>(span)) % span;
}

double IoFaultPlan::fsync_stall(std::uint64_t append_index) const noexcept {
  for (const StallWindow& w : forced_stalls_)
    if (append_index >= w.first && append_index - w.first < w.count)
      return w.seconds;
  if (!hashed_ || spec_.fsync_stall_rate <= 0.0 ||
      spec_.fsync_stall_seconds <= 0.0)
    return 0.0;
  // Stalls cover whole append blocks: a saturated disk misbehaves for a
  // stretch, not for one write, and the shed/recover cycle needs runs of
  // slow fsyncs to trip its hysteresis.
  const std::uint64_t block =
      append_index / static_cast<std::uint64_t>(spec_.fsync_stall_appends);
  if (hashed_uniform(seed_, block, 0, kSaltStall) >= spec_.fsync_stall_rate)
    return 0.0;
  return spec_.fsync_stall_seconds;
}

void IoFaultPlan::force_disconnect(std::uint64_t collector,
                                   std::uint64_t message) {
  forced_disconnects_.emplace_back(collector, message);
}

void IoFaultPlan::force_corrupt(std::uint64_t collector,
                                std::uint64_t message) {
  forced_corruptions_.emplace_back(collector, message);
}

void IoFaultPlan::force_stall_window(std::uint64_t first_append,
                                     std::uint64_t appends, double seconds) {
  forced_stalls_.push_back(StallWindow{first_append, appends, seconds});
}

}  // namespace vmcw
