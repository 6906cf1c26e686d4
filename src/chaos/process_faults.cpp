#include "chaos/process_faults.h"

#include <algorithm>

#include "util/rng.h"

namespace vmcw {

namespace {

constexpr std::uint64_t kSaltKillTime = 0x51C4ull;

}  // namespace

ProcessFaultSpec ProcessFaultSpec::validated() const noexcept {
  ProcessFaultSpec v = *this;
  v.min_uptime_seconds = std::max(min_uptime_seconds, 0.0);
  v.max_uptime_seconds = std::max(max_uptime_seconds, v.min_uptime_seconds);
  return v;
}

ProcessFaultPlan ProcessFaultPlan::generate(const ProcessFaultSpec& raw_spec,
                                            std::uint64_t seed) {
  ProcessFaultPlan plan;
  plan.spec_ = raw_spec.validated();
  const Rng root(seed);  // vmcw-lint: allow(rng-construction) root of the process fault plan
  plan.seed_ = root.fork("chaos/proc")();
  plan.hashed_ = true;
  return plan;
}

double ProcessFaultPlan::kill_after_seconds(std::size_t run) const noexcept {
  for (const auto& [r, seconds] : forced_kills_)
    if (r == run) return seconds;
  if (!hashed_ || run >= spec_.kills) return -1.0;
  const double u = hashed_uniform(seed_, run, 0, kSaltKillTime);
  return spec_.min_uptime_seconds +
         u * (spec_.max_uptime_seconds - spec_.min_uptime_seconds);
}

std::size_t ProcessFaultPlan::kills() const noexcept {
  std::size_t n = hashed_ ? spec_.kills : 0;
  for (const auto& [r, seconds] : forced_kills_)
    if (!hashed_ || r >= spec_.kills) ++n;
  return n;
}

void ProcessFaultPlan::force_kill(std::size_t run, double seconds) {
  forced_kills_.emplace_back(run, seconds);
}

}  // namespace vmcw
