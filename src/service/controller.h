// Incremental placement controller: the deciding core of the daemon.
//
// The batch planners (src/core) re-solve the whole fleet; the controller
// instead keeps resident state — host occupancy, a per-VM demand envelope
// updated online from telemetry deltas — and emits *incremental* decisions
// once per tick (on a Flush frame):
//
//  - arrivals are admitted through the packers' single-VM admission path
//    (core/admission's admit_one — the same code FFD routes groups
//    through), never by re-planning residents;
//  - migrations are proposed only for hosts crossing a threshold: over the
//    utilization bound (contention repair) or below the drain threshold
//    (underutilization drain), via core/admission's repair_and_drain;
//  - everything else holds.
//
// Constraints ride along: each application's replicas compile into
// ConstraintSet domain-spread rules (rack and power-feed, the same affine
// lookup shape topology/spread emits) whenever membership changes, so an
// admission or repair move never violates spread.
//
// Degraded mode: a resident VM whose telemetry is older than `stale_after`
// ticks marks its host degraded — the host is frozen out of admission,
// repair and drain for the tick, the VM gets an explicit hold decision,
// and the batch carries degraded=true. Decisions based on stale demand are
// worse than no decisions.
//
// Layout: per-VM state is a set of flat arrays over dense slots in arrival
// order. Each VM's demand ring sits in storage that stays put for its life
// (compact() moves a handle, not samples), an open-addressing table maps
// ids to handles, and the placement and every per-tick buffer (host loads,
// the capacity index, the frozen set, the re-plan's scratch) are members
// refilled in place. Once they have grown to the fleet, apply() allocates
// nothing for telemetry and a tick without arrivals allocates only its
// decision batch (tests/test_alloc.cpp; on a pool of more than one worker
// the host classification also allocates a task per chunk).
//
// Determinism: apply()/tick() are sequential over the frame stream; the
// only parallelism is repair_and_drain's per-host threshold classification,
// which writes pre-allocated slots — so the decision sequence is
// bit-identical at any VMCW_THREADS, and (because the daemon is WAL-first)
// identical between a live session and a replay of its WAL.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/admission.h"
#include "core/capacity_index.h"
#include "core/constraints.h"
#include "core/host_pool.h"
#include "core/placement.h"
#include "core/settings.h"
#include "hardware/catalog.h"
#include "runtime/wire.h"
#include "service/id_table.h"
#include "service/protocol.h"

namespace vmcw::service {

struct ControllerConfig {
  HostPool pool = HostPool::uniform(hs23_elite_blade());
  /// Capacity bound for admission and repair; headroom above it is the
  /// live-migration reserve, as in dynamic consolidation (Table 3).
  double utilization_bound = 0.8;
  /// Hosts below this normalized load are drain candidates; 0 disables
  /// underutilization drains.
  double drain_below = 0.25;
  /// Telemetry samples per VM kept in the demand envelope (max over the
  /// window sizes the VM for admission and repair).
  std::size_t envelope_window = 12;
  /// A resident VM unseen for more than this many ticks is stale.
  std::uint64_t stale_after = 2;
  /// Spread knobs; compiled into ConstraintSet rules when spread is on.
  FailureDomainSettings domains;
};

/// Binding hash of a fleet configuration: every field that changes what
/// the controller would decide. Hello frames and both WALs carry it, so a
/// recorded stream is never replayed against a different fleet shape.
std::uint64_t fleet_config_hash(const ControllerConfig& config);

class IncrementalController {
 public:
  explicit IncrementalController(ControllerConfig config);

  const ControllerConfig& config() const noexcept { return config_; }

  /// Apply one input frame to resident state. Hello/Heartbeat/Shutdown are
  /// bookkeeping; telemetry updates envelopes; arrivals queue for the next
  /// tick; departures release capacity. Flush frames go to tick() instead.
  void apply(const Frame& frame);

  /// Decide the tick: admissions, stale holds, threshold-triggered repair
  /// and drain migrations, capacity holds. The returned batch is already
  /// applied to resident state (migration decisions are taken as executed
  /// instantly — execution feasibility stays the planners' concern).
  DecisionBatchFrame tick(std::uint64_t now);

  // ---- checkpointing (service/snapshot) ----

  /// Serialize the full resident state — every field tick() reads — into
  /// `w`. A controller restored from these bytes emits byte-identical
  /// decision batches for the same subsequent frame stream; that property
  /// is what makes snapshot+suffix recovery equal to a cold full replay
  /// (tests/test_recovery.cpp pins it at 1/2/8 threads).
  void save_state(wire::ByteWriter& w) const;

  /// Restore state previously written by save_state() against the same
  /// fleet configuration. Throws std::runtime_error on malformed bytes and
  /// on any state the live controller cannot reach: a ring cursor off its
  /// fill count, a host outside the pool, admission that disagrees with
  /// the host map, a queue other than the resident unadmitted slots in
  /// order, or a slot after a resident slot of its id. The controller is
  /// left empty in that case (the caller falls back to a full WAL replay).
  void restore_state(wire::ByteReader& r);

  // ---- observers (tests and the CLI) ----
  std::size_t resident_vms() const noexcept;
  /// Host of an external VM id; -1 when unknown, departed or unadmitted.
  std::int32_t host_of(std::uint64_t vm) const noexcept;
  std::size_t active_hosts() const;
  bool last_tick_degraded() const noexcept { return degraded_; }

 private:
  void on_arrival(const VmArrivalFrame& frame);
  void on_departure(const VmDepartureFrame& frame);
  void on_telemetry(const HostTelemetryDeltaFrame& frame);
  /// Append one demand sample to a slot's ring and update its envelope.
  void observe(std::size_t slot, std::uint64_t tick,
               const ResourceVector& demand) noexcept;
  /// Max over a slot's ring, per resource, from +0.
  ResourceVector ring_max(std::size_t slot) const noexcept;
  std::uint32_t intern_app(const std::string& app);
  void release_app(std::uint32_t app);
  /// Recompile spread rules over the resident fleet (called lazily at the
  /// next tick after membership changed).
  void rebuild_constraints();
  /// Drop every departed VM's slot, keeping survivors in dense order (the
  /// last step of tick()).
  void compact();
  /// Empty every per-slot array and table (restore_state's failure path).
  void clear_state() noexcept;

  ControllerConfig config_;
  std::uint64_t fleet_hash_ = 0;
  /// Samples per demand ring: max(1, config.envelope_window).
  std::size_t window_ = 1;

  // ---- per-VM state: flat arrays over dense slots in arrival order ----
  //
  // A departed VM keeps its slot until the end of the next tick, when
  // compact() drops it and shifts the survivors down in order, so state
  // follows residents, not uptime. Decisions are unchanged by the shift:
  // they name external ids, and every tie-break downstream (admission
  // FIFO, spread groups, repair and drain scans) depends only on the
  // relative dense order of residents.
  std::vector<std::uint64_t> ids_;
  std::vector<std::uint32_t> app_of_;    ///< interned application
  std::vector<std::uint8_t> resident_;   ///< arrived and not departed
  std::vector<std::uint8_t> admitted_;   ///< currently holds a host
  std::vector<std::uint64_t> last_seen_;  ///< tick of the newest sample
  /// A VM's handle is fixed for its life: compact() moves the handle,
  /// never what it names. It names the VM's demand ring, window_ samples
  /// at rings_[handle * window_], and its entry in slot_of_. ring_next_ is
  /// the ring's write cursor and ring_fill_ the samples it holds; the
  /// newest overwrites the oldest once it is full.
  std::vector<std::uint32_t> handle_;
  std::vector<std::uint32_t> ring_next_;
  std::vector<std::uint32_t> ring_fill_;
  /// Demand envelope per slot: ring_max() of a resident's ring, kept
  /// current by observe() (a sample leaving the ring forces a rescan only
  /// if it may have been the max); zero once the VM departs. It is the
  /// size admission and repair see.
  std::vector<ResourceVector> envelope_;
  /// Host per slot (Placement::kUnplaced when none). The admission and
  /// repair machinery works on it in place.
  Placement placement_;
  std::vector<std::size_t> pending_;  ///< slots awaiting admission, FIFO

  std::vector<ResourceVector> rings_;
  std::vector<std::uint32_t> slot_of_;  ///< handle -> slot
  std::vector<std::uint32_t> free_handles_;
  /// External VM id -> handle, for resident VMs. Open addressing with no
  /// iteration API, so no decision can depend on its order (admission FIFO
  /// and spread groups follow slot order). A departure removes its id at
  /// once, and compact() leaves the table alone.
  IdTable index_of_;
  /// Application labels interned per distinct label among the slots; a
  /// label is forgotten when compact() drops its last slot, so the table
  /// is bounded by residents, not uptime.
  std::vector<std::string> app_names_;
  std::vector<std::uint32_t> app_refs_;
  std::vector<std::uint32_t> free_apps_;
  std::unordered_map<std::string, std::uint32_t> app_ids_;

  ConstraintSet constraints_;
  bool constraints_dirty_ = true;
  bool degraded_ = false;

  // ---- tick buffers: resized in place, so a tick allocates only its
  // decision batch once they have grown to the fleet ----
  std::vector<ResourceVector> host_load_;
  CapacityIndex capacity_index_;
  std::vector<std::uint8_t> frozen_;
  std::vector<std::size_t> stale_;
  std::vector<std::size_t> first_resident_;
  std::vector<std::size_t> moved_to_;
  RepairWorkspace repair_;
  std::vector<Decision> decisions_;  ///< the batch, built before it is copied out
};

}  // namespace vmcw::service
