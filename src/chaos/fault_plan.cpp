#include "chaos/fault_plan.h"

#include <algorithm>
#include <string>

#include "util/rng.h"

namespace vmcw {

namespace {

/// Deterministic total order for outage schedules: (host, down_from,
/// up_at, cause, domain). The legacy (host, down_from) order is a prefix
/// of it, so plans without correlated faults sort exactly as before.
bool outage_before(const HostOutage& a, const HostOutage& b) noexcept {
  if (a.host != b.host) return a.host < b.host;
  if (a.down_from != b.down_from) return a.down_from < b.down_from;
  if (a.up_at != b.up_at) return a.up_at < b.up_at;
  if (a.cause != b.cause) return a.cause < b.cause;
  return a.domain < b.domain;
}

}  // namespace

const char* to_string(OutageCause cause) noexcept {
  switch (cause) {
    case OutageCause::kHost:
      return "host";
    case OutageCause::kRack:
      return "rack";
    case OutageCause::kPowerDomain:
      return "power-domain";
  }
  return "?";
}

FaultSpec FaultSpec::at_intensity(double f) noexcept {
  f = std::clamp(f, 0.0, 1.0);
  FaultSpec spec;
  spec.host_crashes_per_month = 2.0 * f;
  spec.migration_failure_rate = 0.30 * f;
  spec.migration_slowdown_rate = 0.30 * f;
  spec.migration_slowdown_max = 4.0;
  spec.monitoring_gap_rate = 0.25 * f;
  return spec;
}

FaultSpec FaultSpec::validated() const noexcept {
  FaultSpec v = *this;
  v.host_crashes_per_month = std::max(host_crashes_per_month, 0.0);
  v.reboot_hours_min = std::max<std::size_t>(reboot_hours_min, 1);
  v.reboot_hours_max = std::max(reboot_hours_max, v.reboot_hours_min);
  v.migration_failure_rate = std::clamp(migration_failure_rate, 0.0, 1.0);
  v.migration_slowdown_rate = std::clamp(migration_slowdown_rate, 0.0, 1.0);
  v.migration_slowdown_max = std::max(migration_slowdown_max, 1.0);
  v.monitoring_gap_rate = std::clamp(monitoring_gap_rate, 0.0, 1.0);
  v.monitoring_gap_max_intervals =
      std::max<std::size_t>(monitoring_gap_max_intervals, 1);
  v.rack_outages_per_month = std::max(rack_outages_per_month, 0.0);
  v.power_domain_outages_per_month =
      std::max(power_domain_outages_per_month, 0.0);
  v.domain_outage_hours_min = std::max<std::size_t>(domain_outage_hours_min, 1);
  v.domain_outage_hours_max =
      std::max(domain_outage_hours_max, v.domain_outage_hours_min);
  return v;
}

FaultPlan FaultPlan::generate(const FaultSpec& raw_spec,
                              std::size_t host_count,
                              const StudySettings& settings,
                              std::uint64_t seed,
                              const FailureDomainMap* topology) {
  FaultPlan plan;
  const FaultSpec spec = raw_spec.validated();
  plan.spec_ = spec;
  const Rng root(seed);  // vmcw-lint: allow(rng-construction) root of the fault plan
  plan.migration_seed_ = root.fork("chaos/migrations")();
  plan.hashed_migration_faults_ = true;

  // Host outages: one keyed stream per host, so adding hosts never
  // perturbs the outage schedule of the others.
  const std::size_t begin = settings.eval_begin();
  const std::size_t end = settings.eval_end();
  const double crash_per_hour = spec.host_crashes_per_month / 720.0;
  if (crash_per_hour > 0.0) {
    for (std::size_t h = 0; h < host_count; ++h) {
      Rng rng = root.fork("chaos/host-" + std::to_string(h));
      std::size_t hour = begin;
      while (hour < end) {
        if (!rng.bernoulli(crash_per_hour)) {
          ++hour;
          continue;
        }
        const auto outage_hours = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(spec.reboot_hours_min),
            static_cast<std::int64_t>(spec.reboot_hours_max)));
        plan.outages_.push_back(HostOutage{h, hour, hour + outage_hours});
        hour += outage_hours;  // a host cannot crash while already down
      }
    }
  }

  // Correlated outages: one keyed stream per failure domain, so the rack-R
  // schedule never depends on how many racks, hosts, or power domains
  // exist beside it. A domain event emits one synchronized HostOutage per
  // member host; overlaps with independent crashes merge below.
  if (topology != nullptr && !topology->empty()) {
    const auto emit_domain_outages = [&](DomainKind kind, double per_month,
                                         const char* stream_prefix,
                                         OutageCause cause) {
      if (per_month <= 0.0) return;
      const double per_hour = per_month / 720.0;
      const std::size_t domains = topology->domain_count(kind);
      for (std::size_t d = 0; d < domains; ++d) {
        const std::vector<std::size_t> members = topology->hosts_in(kind, d);
        if (members.empty()) continue;
        Rng rng = root.fork(stream_prefix + std::to_string(d));
        std::size_t hour = begin;
        while (hour < end) {
          if (!rng.bernoulli(per_hour)) {
            ++hour;
            continue;
          }
          const auto outage_hours = static_cast<std::size_t>(rng.uniform_int(
              static_cast<std::int64_t>(spec.domain_outage_hours_min),
              static_cast<std::int64_t>(spec.domain_outage_hours_max)));
          for (const std::size_t h : members) {
            if (h >= host_count) continue;
            plan.outages_.push_back(HostOutage{h, hour, hour + outage_hours,
                                               cause,
                                               static_cast<std::int32_t>(d)});
          }
          hour += outage_hours;  // one incident at a time per domain
        }
      }
    };
    emit_domain_outages(DomainKind::kRack, spec.rack_outages_per_month,
                        "chaos/rack-", OutageCause::kRack);
    emit_domain_outages(DomainKind::kPowerDomain,
                        spec.power_domain_outages_per_month, "chaos/power-",
                        OutageCause::kPowerDomain);
  }
  plan.normalize_outages();

  // Monitoring gaps: one stream over the interval sequence.
  plan.stale_.assign(settings.intervals(), 0);
  if (spec.monitoring_gap_rate > 0.0) {
    Rng rng = root.fork("chaos/monitoring");
    const std::size_t gap_max =
        std::max<std::size_t>(spec.monitoring_gap_max_intervals, 1);
    std::size_t gap_left = 0;
    for (std::size_t k = 0; k < plan.stale_.size(); ++k) {
      if (gap_left > 0) {
        plan.stale_[k] = 1;
        --gap_left;
        continue;
      }
      if (!rng.bernoulli(spec.monitoring_gap_rate)) continue;
      plan.stale_[k] = 1;
      gap_left = static_cast<std::size_t>(rng.uniform_int(
                     1, static_cast<std::int64_t>(gap_max))) -
                 1;
    }
  }
  return plan;
}

bool FaultPlan::any() const noexcept {
  return spec_.any() || !outages_.empty() || !forced_.empty() ||
         stale_interval_count() > 0;
}

bool FaultPlan::host_down(std::size_t host, std::size_t hour) const noexcept {
  for (const auto& o : outages_) {
    if (o.host != host) continue;
    if (hour >= o.down_from && hour < o.up_at) return true;
  }
  return false;
}

std::vector<HostOutage> FaultPlan::outages_starting_in(
    std::size_t from_hour, std::size_t to_hour) const {
  std::vector<HostOutage> hits;
  for (const auto& o : outages_)
    if (o.down_from >= from_hour && o.down_from < to_hour) hits.push_back(o);
  std::sort(hits.begin(), hits.end(),
            [](const HostOutage& a, const HostOutage& b) {
              return a.down_from != b.down_from ? a.down_from < b.down_from
                                                : a.host < b.host;
            });
  return hits;
}

void FaultPlan::add_outage(std::size_t host, std::size_t down_from,
                           std::size_t up_at) {
  outages_.push_back(HostOutage{host, down_from, up_at});
  normalize_outages();
}

void FaultPlan::add_domain_outage(const FailureDomainMap& topology,
                                  DomainKind kind, std::size_t domain,
                                  std::size_t down_from, std::size_t up_at) {
  const OutageCause cause =
      kind == DomainKind::kRack ? OutageCause::kRack : OutageCause::kPowerDomain;
  for (const std::size_t h : topology.hosts_in(kind, domain))
    outages_.push_back(HostOutage{h, down_from, up_at, cause,
                                  static_cast<std::int32_t>(domain)});
  normalize_outages();
}

void FaultPlan::normalize_outages() {
  std::sort(outages_.begin(), outages_.end(), outage_before);
  std::size_t w = 0;
  for (std::size_t i = 0; i < outages_.size(); ++i) {
    if (w > 0 && outages_[w - 1].host == outages_[i].host &&
        outages_[i].down_from < outages_[w - 1].up_at) {
      // Overlap on one host: one continuous outage, attributed to the
      // earliest-starting record — not two stacked capacity losses.
      outages_[w - 1].up_at = std::max(outages_[w - 1].up_at, outages_[i].up_at);
      continue;
    }
    outages_[w++] = outages_[i];
  }
  outages_.resize(w);
}

bool FaultPlan::monitoring_stale(std::size_t interval) const noexcept {
  return interval < stale_.size() && stale_[interval] != 0;
}

std::size_t FaultPlan::stale_interval_count() const noexcept {
  std::size_t n = 0;
  for (const auto s : stale_) n += s != 0 ? 1 : 0;
  return n;
}

void FaultPlan::force_stale(std::size_t interval) {
  if (stale_.size() <= interval) stale_.resize(interval + 1, 0);
  stale_[interval] = 1;
}

bool FaultPlan::migration_attempt_fails(std::size_t vm, std::size_t interval,
                                        int attempt) const noexcept {
  for (const auto& [key, failures] : forced_)
    if (key.first == vm && key.second == interval) return attempt < failures;
  if (!hashed_migration_faults_ || spec_.migration_failure_rate <= 0.0)
    return false;
  const double u = hashed_uniform(migration_seed_, vm, interval,
                                  0xA77E39ULL + static_cast<std::uint64_t>(
                                                    std::max(attempt, 0)));
  return u < spec_.migration_failure_rate;
}

double FaultPlan::migration_slowdown(std::size_t vm,
                                     std::size_t interval) const noexcept {
  if (!hashed_migration_faults_ || spec_.migration_slowdown_rate <= 0.0)
    return 1.0;
  if (hashed_uniform(migration_seed_, vm, interval, 0x510Dull) >=
      spec_.migration_slowdown_rate)
    return 1.0;
  const double u = hashed_uniform(migration_seed_, vm, interval, 0x51F7ull);
  return 1.0 + u * (std::max(spec_.migration_slowdown_max, 1.0) - 1.0);
}

void FaultPlan::force_migration_failures(std::size_t vm, std::size_t interval,
                                         int failures) {
  forced_.emplace_back(std::make_pair(vm, interval), failures);
}

}  // namespace vmcw
