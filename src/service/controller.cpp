#include "service/controller.h"

#include <algorithm>
#include <stdexcept>

#include "runtime/wire.h"
#include "util/reuse.h"

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

IncrementalController::IncrementalController(ControllerConfig config)
    : config_(std::move(config)),
      fleet_hash_(fleet_config_hash(config_)),
      window_(std::max<std::size_t>(1, config_.envelope_window)) {}

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

void IncrementalController::observe(std::size_t slot, std::uint64_t tick,
                                    const ResourceVector& demand) noexcept {
  last_seen_[slot] = std::max(last_seen_[slot], tick);
  ResourceVector& cell = rings_[handle_[slot] * window_ + ring_next_[slot]];
  const bool full = ring_fill_[slot] == window_;
  const ResourceVector dropped = cell;
  cell = demand;
  if (!full) ++ring_fill_[slot];
  ring_next_[slot] = ring_next_[slot] + 1 == window_ ? 0 : ring_next_[slot] + 1;
  // The envelope is the ring's max from +0: std::max keeps its first
  // argument unless the second compares greater, so NaN samples never
  // count and the order of samples does not matter. A new sample can only
  // raise it, unless the sample it overwrites may have been the max.
  ResourceVector& env = envelope_[slot];
  if (full && !(dropped.cpu_rpe2 < env.cpu_rpe2 &&
                dropped.memory_mb < env.memory_mb)) {
    env = ring_max(slot);
  } else {
    env.cpu_rpe2 = std::max(env.cpu_rpe2, demand.cpu_rpe2);
    env.memory_mb = std::max(env.memory_mb, demand.memory_mb);
  }
}

ResourceVector IncrementalController::ring_max(
    std::size_t slot) const noexcept {
  const ResourceVector* ring = &rings_[handle_[slot] * window_];
  ResourceVector env;
  for (std::size_t s = 0; s < ring_fill_[slot]; ++s) {
    env.cpu_rpe2 = std::max(env.cpu_rpe2, ring[s].cpu_rpe2);
    env.memory_mb = std::max(env.memory_mb, ring[s].memory_mb);
  }
  return env;
}

std::uint32_t IncrementalController::intern_app(const std::string& app) {
  const auto it = app_ids_.find(app);
  if (it != app_ids_.end()) {
    ++app_refs_[it->second];
    return it->second;
  }
  std::uint32_t id;
  if (!free_apps_.empty()) {
    id = free_apps_.back();
    free_apps_.pop_back();
    app_names_[id] = app;
  } else {
    id = static_cast<std::uint32_t>(app_names_.size());
    app_names_.push_back(app);
    app_refs_.push_back(0);
  }
  app_refs_[id] = 1;
  app_ids_.emplace(app, id);
  return id;
}

void IncrementalController::release_app(std::uint32_t app) {
  if (--app_refs_[app] != 0) return;
  app_ids_.erase(app_names_[app]);
  free_apps_.push_back(app);
}

void IncrementalController::on_arrival(const VmArrivalFrame& frame) {
  if (index_of_.find(frame.vm) != IdTable::kNone)
    return;  // duplicate arrival: first one wins

  // A re-arrival of a departed id gets a fresh slot at the end; the
  // departed slot stays (unreachable through index_of_) until compact().
  const std::size_t slot = ids_.size();
  std::uint32_t handle;
  if (!free_handles_.empty()) {
    handle = free_handles_.back();
    free_handles_.pop_back();
  } else {
    handle = static_cast<std::uint32_t>(slot_of_.size());
    slot_of_.push_back(0);
    rings_.resize(rings_.size() + window_);
  }
  slot_of_[handle] = static_cast<std::uint32_t>(slot);
  ids_.push_back(frame.vm);
  app_of_.push_back(intern_app(frame.app));
  resident_.push_back(1);
  admitted_.push_back(0);
  last_seen_.push_back(0);
  handle_.push_back(handle);
  ring_next_.push_back(0);
  ring_fill_.push_back(0);
  envelope_.emplace_back();
  placement_.resize(slot + 1);
  observe(slot, frame.tick, ResourceVector{frame.cpu_rpe2, frame.memory_mb});
  index_of_.assign(frame.vm, handle);
  pending_.push_back(slot);
  constraints_dirty_ = true;
}

void IncrementalController::on_departure(const VmDepartureFrame& frame) {
  const std::uint32_t handle = index_of_.find(frame.vm);
  if (handle == IdTable::kNone) return;
  index_of_.erase(frame.vm);
  const std::uint32_t slot = slot_of_[handle];
  resident_[slot] = 0;
  envelope_[slot] = ResourceVector{};
  if (admitted_[slot]) {
    placement_.unassign(slot);
    admitted_[slot] = 0;
  }
  pending_.erase(std::remove(pending_.begin(), pending_.end(), slot),
                 pending_.end());
  constraints_dirty_ = true;
}

void IncrementalController::on_telemetry(const HostTelemetryDeltaFrame& frame) {
  for (const VmSample& sample : frame.samples) {
    const std::uint32_t handle = index_of_.find(sample.vm);
    if (handle == IdTable::kNone) continue;
    observe(slot_of_[handle], frame.tick,
            ResourceVector{sample.cpu_rpe2, sample.memory_mb});
  }
}

void IncrementalController::rebuild_constraints() {
  const std::size_t n = ids_.size();
  constraints_.reset(n);
  if (!config_.domains.spread || config_.domains.spread_k < 2) return;

  // Ordered by app label, members in dense (arrival) order — the same
  // deterministic shape at any thread count.
  std::vector<std::vector<std::size_t>> members(app_names_.size());
  for (std::size_t vm = 0; vm < n; ++vm)
    if (resident_[vm] && !app_names_[app_of_[vm]].empty())
      members[app_of_[vm]].push_back(vm);
  std::vector<std::uint32_t> apps;
  for (std::uint32_t app = 0; app < members.size(); ++app)
    if (!members[app].empty()) apps.push_back(app);
  std::sort(apps.begin(), apps.end(), [&](std::uint32_t a, std::uint32_t b) {
    return app_names_[a] < app_names_[b];
  });

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

  for (const std::uint32_t app : apps) {
    std::vector<std::size_t>& group = members[app];
    const std::size_t count = group.size();
    if (count < 2) continue;
    const std::size_t k_eff = std::min(config_.domains.spread_k, count);
    if (k_eff < 2) continue;
    const std::size_t cap = (count + k_eff - 1) / k_eff;
    if (cap >= count) continue;  // would constrain nothing
    constraints_.add_domain_spread(group, rack, cap);
    constraints_.add_domain_spread(std::move(group), power, cap);
  }
}

DecisionBatchFrame IncrementalController::tick(std::uint64_t now) {
  DecisionBatchFrame batch;
  batch.tick = now;
  decisions_.clear();
  if (constraints_dirty_) {
    rebuild_constraints();
    constraints_dirty_ = false;
  }

  // Host loads, each summed in slot order (host_load_ spans 1 + the
  // highest host in use), and the residents whose telemetry went stale,
  // in one pass. Every placed slot is resident and admitted.
  const std::size_t n = ids_.size();
  host_load_.clear();
  stale_.clear();
  for (std::size_t vm = 0; vm < n; ++vm) {
    const std::int32_t host = placement_.host_of(vm);
    if (host == Placement::kUnplaced) continue;
    const auto h = static_cast<std::size_t>(host);
    if (h >= host_load_.size()) host_load_.resize(h + 1);
    host_load_[h] += envelope_[vm];
    if (now > last_seen_[vm] + config_.stale_after) stale_.push_back(vm);
  }

  // Free-capacity index over the open hosts: admission and repair-drain
  // below find targets in O(log n) instead of rescanning the fleet every
  // decision (the dominant tick cost at fleet scale). Refilled per tick
  // because envelopes move every tick anyway; the refill is one O(n) pass.
  capacity_index_.assign(host_load_, [&](std::size_t host) {
    return config_.pool.capacity_of(host, config_.utilization_bound);
  });

  // Degraded mode: hosts whose residents went silent are frozen out of
  // every placement change this tick.
  refill(frozen_, host_load_.size(), std::uint8_t{0});
  for (const std::size_t vm : stale_)
    frozen_[static_cast<std::size_t>(placement_.host_of(vm))] = 1;
  batch.degraded = !stale_.empty();
  degraded_ = batch.degraded;

  // Admissions, in arrival order, through the packers' single-VM path. A
  // VM that fits nowhere holds and stays queued for the next tick.
  std::size_t still_pending = 0;
  for (const std::size_t vm : pending_) {
    AdmissionOptions options;
    options.frozen_hosts = frozen_;
    options.index = &capacity_index_;
    const auto host =
        admit_one(vm, envelope_[vm], host_load_, config_.pool,
                  config_.utilization_bound, constraints_, placement_, options);
    if (host) {
      admitted_[vm] = 1;
      decisions_.push_back({ids_[vm], DecisionAction::kAdmit,
                           DecisionReason::kAdmitted, -1,
                           static_cast<std::int32_t>(*host)});
    } else {
      pending_[still_pending++] = vm;
      decisions_.push_back({ids_[vm], DecisionAction::kHold,
                           DecisionReason::kNoCapacity, -1, -1});
    }
  }
  pending_.resize(still_pending);

  for (const std::size_t vm : stale_) {
    const std::int32_t host = placement_.host_of(vm);
    decisions_.push_back({ids_[vm], DecisionAction::kHold,
                         DecisionReason::kStaleTelemetry, host, host});
  }

  // Threshold-triggered incremental re-plan of the unfrozen fleet.
  const RepairOutcome& outcome = repair_and_drain(
      repair_, envelope_, placement_, host_load_, config_.pool,
      config_.utilization_bound, config_.drain_below, constraints_, frozen_,
      &capacity_index_);
  for (const PlacementMove& move : outcome.repair_moves) {
    admitted_[move.vm] = 1;
    decisions_.push_back({ids_[move.vm], DecisionAction::kMigrate,
                         DecisionReason::kContention, move.from,
                         move.to});
  }
  if (!outcome.unresolved_hosts.empty()) {
    // The overload persists; hold each stuck host's first resident
    // explicitly so the operator sees the host in the decision log.
    refill(first_resident_, placement_.host_index_bound(), n);
    for (std::size_t vm = 0; vm < n; ++vm) {
      const std::int32_t host = placement_.host_of(vm);
      if (host == Placement::kUnplaced) continue;
      std::size_t& first = first_resident_[static_cast<std::size_t>(host)];
      if (first == n) first = vm;
    }
    for (const std::size_t host : outcome.unresolved_hosts) {
      if (host >= first_resident_.size() || first_resident_[host] == n)
        continue;
      decisions_.push_back({ids_[first_resident_[host]],
                           DecisionAction::kHold,
                           DecisionReason::kNoCapacity,
                           static_cast<std::int32_t>(host),
                           static_cast<std::int32_t>(host)});
    }
  }
  for (const PlacementMove& move : outcome.drain_moves)
    decisions_.push_back({ids_[move.vm], DecisionAction::kMigrate,
                         DecisionReason::kUnderutilization, move.from,
                         move.to});

  // The batch's one allocation, sized exactly.
  batch.decisions.assign(decisions_.begin(), decisions_.end());
  compact();
  return batch;
}

void IncrementalController::compact() {
  // One stable pass: survivors keep their relative order, so every
  // order-dependent choice of later ticks is the one the uncompacted
  // state would have made. Departed VMs are unplaced and out of pending_
  // (on_departure); their handles and labels go back to the free lists.
  constexpr std::size_t kDropped = static_cast<std::size_t>(-1);
  const std::size_t n = ids_.size();
  moved_to_.resize(n);
  std::size_t kept = 0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (!resident_[slot]) {
      free_handles_.push_back(handle_[slot]);
      release_app(app_of_[slot]);
      moved_to_[slot] = kDropped;
      continue;
    }
    if (kept != slot) {
      ids_[kept] = ids_[slot];
      app_of_[kept] = app_of_[slot];
      resident_[kept] = 1;
      admitted_[kept] = admitted_[slot];
      last_seen_[kept] = last_seen_[slot];
      handle_[kept] = handle_[slot];
      slot_of_[handle_[kept]] = static_cast<std::uint32_t>(kept);
      ring_next_[kept] = ring_next_[slot];
      ring_fill_[kept] = ring_fill_[slot];
      envelope_[kept] = envelope_[slot];
      placement_.assign(kept, placement_.host_of(slot));
    }
    moved_to_[slot] = kept++;
  }
  if (kept == n) return;
  ids_.resize(kept);
  app_of_.resize(kept);
  resident_.resize(kept);
  admitted_.resize(kept);
  last_seen_.resize(kept);
  handle_.resize(kept);
  ring_next_.resize(kept);
  ring_fill_.resize(kept);
  envelope_.resize(kept);
  placement_.resize(kept);
  for (std::size_t& slot : pending_) slot = moved_to_[slot];
  constraints_dirty_ = true;  // spread rules name dense indices
}

void IncrementalController::save_state(wire::ByteWriter& w) const {
  const std::size_t n = ids_.size();
  w.u64(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    w.u64(ids_[slot]);
    w.str(app_names_[app_of_[slot]]);
    w.u8(resident_[slot]);
    w.u8(admitted_[slot]);
    w.u64(last_seen_[slot]);
    w.u64(ring_next_[slot]);
    w.u64(ring_fill_[slot]);
    const ResourceVector* ring = &rings_[handle_[slot] * window_];
    for (std::size_t s = 0; s < ring_fill_[slot]; ++s) {
      w.f64(ring[s].cpu_rpe2);
      w.f64(ring[s].memory_mb);
    }
  }
  w.u64(n);
  for (std::size_t slot = 0; slot < n; ++slot) w.i32(placement_.host_of(slot));
  w.vec_u64(pending_);
  w.u8(degraded_ ? 1 : 0);
}

void IncrementalController::clear_state() noexcept {
  ids_.clear();
  app_of_.clear();
  resident_.clear();
  admitted_.clear();
  last_seen_.clear();
  handle_.clear();
  ring_next_.clear();
  ring_fill_.clear();
  envelope_.clear();
  placement_.resize(0);
  pending_.clear();
  rings_.clear();
  slot_of_.clear();
  free_handles_.clear();
  index_of_.clear();
  app_names_.clear();
  app_refs_.clear();
  free_apps_.clear();
  app_ids_.clear();
  degraded_ = false;
  constraints_dirty_ = true;
}

void IncrementalController::restore_state(wire::ByteReader& r) {
  // Besides well-formed bytes, the state must be one the live controller
  // can reach: tick() and apply() index rings, hosts and slots by these
  // fields without further checks.
  auto reject = [](const char* what) {
    throw std::runtime_error(std::string("controller: snapshot ") + what);
  };
  clear_state();
  try {
    const std::uint64_t n = r.u64();
    if (n >= IdTable::kNone) reject("slot count overruns");
    for (std::uint64_t slot = 0; slot < n; ++slot) {
      const std::uint64_t id = r.u64();
      const std::string app = r.str();
      const bool resident = r.u8() != 0;
      const bool admitted = r.u8() != 0;
      const std::uint64_t last_seen = r.u64();
      const std::uint64_t next = r.u64();
      const std::uint64_t fill = r.u64();
      if (fill > window_) reject("window overruns");
      // A slot is born holding its arrival sample; the cursor sits at the
      // fill count until the ring is full, and inside it after.
      if (fill == 0) reject("ring is empty");
      if (fill < window_ ? next != fill : next >= window_)
        reject("ring cursor is off its fill count");
      ids_.push_back(id);
      app_of_.push_back(intern_app(app));
      resident_.push_back(resident ? 1 : 0);
      admitted_.push_back(admitted ? 1 : 0);
      last_seen_.push_back(last_seen);
      handle_.push_back(static_cast<std::uint32_t>(slot));
      slot_of_.push_back(static_cast<std::uint32_t>(slot));
      ring_next_.push_back(static_cast<std::uint32_t>(next));
      ring_fill_.push_back(static_cast<std::uint32_t>(fill));
      rings_.resize(rings_.size() + window_);
      ResourceVector* ring = &rings_[slot * window_];
      for (std::uint64_t s = 0; s < fill; ++s) {
        ring[s].cpu_rpe2 = r.f64();
        ring[s].memory_mb = r.f64();
      }
      envelope_.push_back(resident ? ring_max(slot) : ResourceVector{});
    }
    if (r.u64() != n) reject("host map size mismatch");
    placement_.resize(n);
    for (std::uint64_t slot = 0; slot < n; ++slot) {
      const std::int32_t host = r.i32();
      if (host != Placement::kUnplaced &&
          (host < 0 || !config_.pool.valid_host(static_cast<std::size_t>(host))))
        reject("host index is outside the pool");
      if ((host != Placement::kUnplaced) != (admitted_[slot] != 0))
        reject("admission flag disagrees with the host map");
      if (admitted_[slot] && !resident_[slot])
        reject("departed slot holds a host");
      placement_.assign(slot, host);
    }
    pending_ = r.vec_u64();
    // The admission queue is exactly the resident, unadmitted slots, in
    // arrival order.
    std::size_t queued = 0;
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (!resident_[slot] || admitted_[slot]) continue;
      if (queued >= pending_.size() || pending_[queued] != slot)
        reject("admission queue disagrees with the unadmitted slots");
      ++queued;
    }
    if (queued != pending_.size())
      reject("admission queue disagrees with the unadmitted slots");
    degraded_ = r.u8() != 0;
    if (!r.exhausted()) reject("has trailing bytes");
    // The table holds the resident ids. A snapshot taken between a
    // departure and the next tick still holds the departed slot, as the
    // live controller does; both drop it at that tick's end. An id can
    // re-arrive only after it departed, so no slot, resident or not,
    // follows a resident slot of its id.
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (index_of_.find(ids_[slot]) != IdTable::kNone)
        reject("has a slot after a resident slot of its id");
      if (resident_[slot])
        index_of_.assign(ids_[slot], static_cast<std::uint32_t>(slot));
    }
  } catch (...) {
    clear_state();
    throw;
  }
}

std::size_t IncrementalController::resident_vms() const noexcept {
  return static_cast<std::size_t>(
      std::count(resident_.begin(), resident_.end(), std::uint8_t{1}));
}

std::int32_t IncrementalController::host_of(std::uint64_t vm) const noexcept {
  const std::uint32_t handle = index_of_.find(vm);
  if (handle == IdTable::kNone) return Placement::kUnplaced;
  const std::uint32_t slot = slot_of_[handle];
  if (!admitted_[slot]) return Placement::kUnplaced;
  return placement_.host_of(slot);
}

std::size_t IncrementalController::active_hosts() const {
  return placement_.active_host_count();
}

}  // namespace vmcw::service
