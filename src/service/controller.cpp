#include "service/controller.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/admission.h"
#include "runtime/wire.h"
#include "core/capacity_index.h"

namespace vmcw::service {

std::uint64_t fleet_config_hash(const ControllerConfig& config) {
  wire::ByteWriter w;
  w.u64(config.pool.class_count());
  for (std::size_t i = 0; i < config.pool.class_count(); ++i) {
    const HostClass& c = config.pool.host_class(i);
    w.str(c.spec.model);
    w.f64(c.spec.cpu_rpe2);
    w.f64(c.spec.memory_mb);
    w.u64(c.count);
  }
  w.f64(config.utilization_bound);
  w.f64(config.drain_below);
  w.u64(config.envelope_window);
  w.u64(config.stale_after);
  w.u8(config.domains.spread ? 1 : 0);
  w.u64(config.domains.spread_k);
  w.u64(config.domains.hosts_per_rack);
  w.u64(config.domains.racks_per_power_domain);
  return wire::fnv1a64(w.bytes().data(), w.bytes().size());
}

ResourceVector IncrementalController::VmState::envelope() const noexcept {
  ResourceVector env;
  for (const ResourceVector& sample : window) {
    env.cpu_rpe2 = std::max(env.cpu_rpe2, sample.cpu_rpe2);
    env.memory_mb = std::max(env.memory_mb, sample.memory_mb);
  }
  return env;
}

void IncrementalController::VmState::observe(std::uint64_t tick,
                                             const ResourceVector& demand,
                                             std::size_t window_cap) {
  last_seen = std::max(last_seen, tick);
  const std::size_t cap = std::max<std::size_t>(1, window_cap);
  if (window.size() < cap)
    window.push_back(demand);
  else
    window[window_next] = demand;
  window_next = (window_next + 1) % cap;
}

IncrementalController::IncrementalController(ControllerConfig config)
    : config_(std::move(config)), fleet_hash_(fleet_config_hash(config_)) {}

void IncrementalController::apply(const Frame& frame) {
  std::visit(
      [&](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, HelloFrame>) {
          if (f.version != kProtocolVersion)
            throw std::runtime_error("controller: protocol version mismatch");
          if (f.fleet_hash != 0 && f.fleet_hash != fleet_hash_)
            throw std::runtime_error("controller: fleet config hash mismatch");
        } else if constexpr (std::is_same_v<T, FlushFrame>) {
          throw std::logic_error("controller: Flush frames go through tick()");
        } else if constexpr (std::is_same_v<T, HostTelemetryDeltaFrame>) {
          on_telemetry(f);
        } else if constexpr (std::is_same_v<T, VmArrivalFrame>) {
          on_arrival(f);
        } else if constexpr (std::is_same_v<T, VmDepartureFrame>) {
          on_departure(f);
        }
        // Heartbeat, Shutdown and (replayed) DecisionBatch frames carry no
        // placement state.
      },
      frame);
}

void IncrementalController::on_arrival(const VmArrivalFrame& frame) {
  const auto it = index_of_.find(frame.vm);
  if (it != index_of_.end() && vms_[it->second].resident)
    return;  // duplicate arrival: first one wins

  // A re-arrival of a departed id gets a fresh slot at the end; the
  // departed slot stays (unreachable through index_of_) until compact().
  const std::size_t dense = vms_.size();
  VmState state;
  state.id = frame.vm;
  state.app = frame.app;
  state.resident = true;
  state.observe(frame.tick, ResourceVector{frame.cpu_rpe2, frame.memory_mb},
                config_.envelope_window);
  vms_.push_back(std::move(state));
  index_of_[frame.vm] = dense;
  pending_.push_back(dense);
  host_of_.push_back(Placement::kUnplaced);
  constraints_dirty_ = true;
}

void IncrementalController::on_departure(const VmDepartureFrame& frame) {
  const auto it = index_of_.find(frame.vm);
  if (it == index_of_.end()) return;
  VmState& state = vms_[it->second];
  if (!state.resident) return;
  state.resident = false;
  if (state.admitted) {
    host_of_[it->second] = Placement::kUnplaced;
    state.admitted = false;
  }
  pending_.erase(std::remove(pending_.begin(), pending_.end(), it->second),
                 pending_.end());
  constraints_dirty_ = true;
}

void IncrementalController::on_telemetry(const HostTelemetryDeltaFrame& frame) {
  for (const VmSample& sample : frame.samples) {
    const auto it = index_of_.find(sample.vm);
    if (it == index_of_.end() || !vms_[it->second].resident) continue;
    vms_[it->second].observe(frame.tick,
                             ResourceVector{sample.cpu_rpe2, sample.memory_mb},
                             config_.envelope_window);
  }
}

void IncrementalController::rebuild_constraints() {
  constraints_ = ConstraintSet(vms_.size());
  if (!config_.domains.spread || config_.domains.spread_k < 2) return;

  // Ordered by app label, members in dense (arrival) order — the same
  // deterministic shape at any thread count.
  std::map<std::string, std::vector<std::size_t>> apps;
  for (std::size_t vm = 0; vm < vms_.size(); ++vm)
    if (vms_[vm].resident && !vms_[vm].app.empty())
      apps[vms_[vm].app].push_back(vm);

  // Affine domain maps over the whole (possibly unlimited) pool — the
  // extrapolation-tail shape topology/spread uses past its table.
  DomainLookup rack;
  rack.tail_first_domain = 0;
  rack.tail_hosts_per_domain =
      std::max<std::size_t>(1, config_.domains.hosts_per_rack);
  DomainLookup power;
  power.tail_first_domain = 0;
  power.tail_hosts_per_domain = std::max<std::size_t>(
      1, config_.domains.hosts_per_rack * config_.domains.racks_per_power_domain);

  for (const auto& [app, members] : apps) {
    const std::size_t n = members.size();
    if (n < 2) continue;
    const std::size_t k_eff = std::min(config_.domains.spread_k, n);
    if (k_eff < 2) continue;
    const std::size_t cap = (n + k_eff - 1) / k_eff;
    if (cap >= n) continue;  // would constrain nothing
    constraints_.add_domain_spread(members, rack, cap);
    constraints_.add_domain_spread(members, power, cap);
  }
}

DecisionBatchFrame IncrementalController::tick(std::uint64_t now) {
  DecisionBatchFrame batch;
  batch.tick = now;
  if (constraints_dirty_) {
    rebuild_constraints();
    constraints_dirty_ = false;
  }

  const std::size_t n = vms_.size();
  std::vector<ResourceVector> sizes(n);
  for (std::size_t vm = 0; vm < n; ++vm)
    if (vms_[vm].resident) sizes[vm] = vms_[vm].envelope();

  // Materialize the resident placement for the admission/repair machinery
  // (host_of_ is the O(1)-growable source of truth between ticks).
  Placement placement(n);
  for (std::size_t vm = 0; vm < n; ++vm)
    if (host_of_[vm] != Placement::kUnplaced)
      placement.assign(vm, host_of_[vm]);

  std::vector<ResourceVector> host_load(placement.host_index_bound());
  for (std::size_t vm = 0; vm < n; ++vm) {
    const std::int32_t host = placement.host_of(vm);
    if (host != Placement::kUnplaced)
      host_load[static_cast<std::size_t>(host)] += sizes[vm];
  }

  // Free-capacity index over the open hosts: admission and repair-drain
  // below find targets in O(log n) instead of rescanning the fleet every
  // decision (the dominant tick cost at fleet scale). Rebuilt per tick
  // because envelopes move every tick anyway; the build is one O(n) pass.
  CapacityIndex capacity_index;
  capacity_index.reserve(host_load.size());
  for (std::size_t host = 0; host < host_load.size(); ++host)
    capacity_index.push_host(
        config_.pool.capacity_of(host, config_.utilization_bound));
  for (std::size_t host = 0; host < host_load.size(); ++host)
    capacity_index.set_load(host, host_load[host]);

  // Degraded mode: hosts whose residents went silent are frozen out of
  // every placement change this tick.
  std::vector<std::size_t> stale;
  std::vector<std::uint8_t> frozen(host_load.size(), 0);
  for (std::size_t vm = 0; vm < n; ++vm) {
    const VmState& state = vms_[vm];
    if (!state.resident || !state.admitted) continue;
    if (now > state.last_seen + config_.stale_after) {
      stale.push_back(vm);
      frozen[static_cast<std::size_t>(placement.host_of(vm))] = 1;
    }
  }
  batch.degraded = !stale.empty();
  degraded_ = batch.degraded;

  // Admissions, in arrival order, through the packers' single-VM path. A
  // VM that fits nowhere holds and stays queued for the next tick.
  std::vector<std::size_t> still_pending;
  for (const std::size_t vm : pending_) {
    AdmissionOptions options;
    options.frozen_hosts = frozen;
    options.index = &capacity_index;
    const auto host =
        admit_one(vm, sizes[vm], host_load, config_.pool,
                  config_.utilization_bound, constraints_, placement, options);
    if (host) {
      vms_[vm].admitted = true;
      batch.decisions.push_back({vms_[vm].id, DecisionAction::kAdmit,
                                 DecisionReason::kAdmitted, -1,
                                 static_cast<std::int32_t>(*host)});
    } else {
      still_pending.push_back(vm);
      batch.decisions.push_back({vms_[vm].id, DecisionAction::kHold,
                                 DecisionReason::kNoCapacity, -1, -1});
    }
  }
  pending_ = std::move(still_pending);

  for (const std::size_t vm : stale) {
    const std::int32_t host = placement.host_of(vm);
    batch.decisions.push_back({vms_[vm].id, DecisionAction::kHold,
                               DecisionReason::kStaleTelemetry, host, host});
  }

  // Threshold-triggered incremental re-plan of the unfrozen fleet.
  const RepairOutcome outcome = repair_and_drain(
      sizes, placement, host_load, config_.pool, config_.utilization_bound,
      config_.drain_below, constraints_, frozen, &capacity_index);
  for (const PlacementMove& move : outcome.repair_moves) {
    vms_[move.vm].admitted = true;
    batch.decisions.push_back({vms_[move.vm].id, DecisionAction::kMigrate,
                               DecisionReason::kContention, move.from,
                               move.to});
  }
  if (!outcome.unresolved_hosts.empty()) {
    // The overload persists; hold each stuck host's first resident
    // explicitly so the operator sees the host in the decision log.
    std::vector<std::size_t> first_resident(placement.host_index_bound(), n);
    for (std::size_t vm = 0; vm < n; ++vm) {
      const std::int32_t host = placement.host_of(vm);
      if (host == Placement::kUnplaced) continue;
      std::size_t& first = first_resident[static_cast<std::size_t>(host)];
      if (first == n) first = vm;
    }
    for (const std::size_t host : outcome.unresolved_hosts) {
      if (host >= first_resident.size() || first_resident[host] == n) continue;
      batch.decisions.push_back({vms_[first_resident[host]].id,
                                 DecisionAction::kHold,
                                 DecisionReason::kNoCapacity,
                                 static_cast<std::int32_t>(host),
                                 static_cast<std::int32_t>(host)});
    }
  }
  for (const PlacementMove& move : outcome.drain_moves)
    batch.decisions.push_back({vms_[move.vm].id, DecisionAction::kMigrate,
                               DecisionReason::kUnderutilization, move.from,
                               move.to});

  for (std::size_t vm = 0; vm < n; ++vm) host_of_[vm] = placement.host_of(vm);
  compact();
  return batch;
}

void IncrementalController::compact() {
  // One stable pass: survivors keep their relative order, so every
  // order-dependent choice of later ticks is the one the uncompacted
  // state would have made. Departed VMs are unplaced and out of pending_
  // (on_departure), so only index_of_ needs more than the shift.
  constexpr std::size_t kDropped = static_cast<std::size_t>(-1);
  std::vector<std::size_t> moved_to(vms_.size(), kDropped);
  std::size_t kept = 0;
  for (std::size_t dense = 0; dense < vms_.size(); ++dense) {
    if (!vms_[dense].resident) continue;
    if (kept != dense) {
      vms_[kept] = std::move(vms_[dense]);
      host_of_[kept] = host_of_[dense];
    }
    moved_to[dense] = kept++;
  }
  if (kept == vms_.size()) return;
  vms_.resize(kept);
  host_of_.resize(kept);
  for (std::size_t& dense : pending_) dense = moved_to[dense];
  // An id maps to its newest slot; it leaves the map only if that slot
  // departed (a departed-then-re-arrived id keeps its new slot).
  for (auto it = index_of_.begin(); it != index_of_.end();) {
    if (moved_to[it->second] == kDropped) {
      it = index_of_.erase(it);
    } else {
      it->second = moved_to[it->second];
      ++it;
    }
  }
  constraints_dirty_ = true;  // spread rules name dense indices
}

void IncrementalController::save_state(wire::ByteWriter& w) const {
  w.u64(vms_.size());
  for (const VmState& vm : vms_) {
    w.u64(vm.id);
    w.str(vm.app);
    w.u8(vm.resident ? 1 : 0);
    w.u8(vm.admitted ? 1 : 0);
    w.u64(vm.last_seen);
    w.u64(vm.window_next);
    w.u64(vm.window.size());
    for (const ResourceVector& sample : vm.window) {
      w.f64(sample.cpu_rpe2);
      w.f64(sample.memory_mb);
    }
  }
  w.u64(host_of_.size());
  for (const std::int32_t host : host_of_) w.i32(host);
  w.vec_u64(pending_);
  w.u8(degraded_ ? 1 : 0);
}

void IncrementalController::restore_state(wire::ByteReader& r) {
  vms_.clear();
  index_of_.clear();
  host_of_.clear();
  pending_.clear();
  degraded_ = false;
  constraints_dirty_ = true;
  try {
    const std::uint64_t n = r.u64();
    vms_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      VmState vm;
      vm.id = r.u64();
      vm.app = r.str();
      vm.resident = r.u8() != 0;
      vm.admitted = r.u8() != 0;
      vm.last_seen = r.u64();
      vm.window_next = r.u64();
      const std::uint64_t samples = r.u64();
      if (samples > std::max<std::size_t>(1, config_.envelope_window))
        throw std::runtime_error("controller: snapshot window overruns");
      vm.window.reserve(samples);
      for (std::uint64_t s = 0; s < samples; ++s) {
        ResourceVector sample;
        sample.cpu_rpe2 = r.f64();
        sample.memory_mb = r.f64();
        vm.window.push_back(sample);
      }
      if (vm.window_next > vm.window.size())
        throw std::runtime_error("controller: snapshot ring cursor overruns");
      vms_.push_back(std::move(vm));
    }
    if (r.u64() != n)
      throw std::runtime_error("controller: snapshot host map size mismatch");
    host_of_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) host_of_.push_back(r.i32());
    pending_ = r.vec_u64();
    for (const std::size_t dense : pending_)
      if (dense >= vms_.size())
        throw std::runtime_error("controller: snapshot FIFO index overruns");
    degraded_ = r.u8() != 0;
    if (!r.exhausted())
      throw std::runtime_error("controller: snapshot has trailing bytes");
  } catch (...) {
    vms_.clear();
    index_of_.clear();
    host_of_.clear();
    pending_.clear();
    degraded_ = false;
    throw;
  }
  // Slots are in arrival order and a re-arrival points the map at its
  // newest slot (on_arrival), so rebuilding in dense order — later entries
  // overwriting earlier ones — reproduces the live map exactly. A snapshot
  // taken between a departure and the next tick still holds the departed
  // slot, as the live controller does; both drop it at that tick's end.
  for (std::size_t dense = 0; dense < vms_.size(); ++dense)
    index_of_[vms_[dense].id] = dense;
}

std::size_t IncrementalController::resident_vms() const noexcept {
  std::size_t count = 0;
  for (const VmState& state : vms_)
    if (state.resident) ++count;
  return count;
}

std::int32_t IncrementalController::host_of(std::uint64_t vm) const noexcept {
  const auto it = index_of_.find(vm);
  if (it == index_of_.end() || !vms_[it->second].resident ||
      !vms_[it->second].admitted)
    return Placement::kUnplaced;
  return host_of_[it->second];
}

std::size_t IncrementalController::active_hosts() const {
  std::set<std::int32_t> hosts;
  for (const std::int32_t host : host_of_)
    if (host != Placement::kUnplaced) hosts.insert(host);
  return hosts.size();
}

}  // namespace vmcw::service
