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
// Determinism: apply()/tick() are sequential over the frame stream; the
// only parallelism is repair_and_drain's per-host threshold classification,
// which writes pre-allocated slots — so the decision sequence is
// bit-identical at any VMCW_THREADS, and (because the daemon is WAL-first)
// identical between a live session and a replay of its WAL.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/constraints.h"
#include "core/host_pool.h"
#include "core/placement.h"
#include "core/settings.h"
#include "hardware/catalog.h"
#include "runtime/wire.h"
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
  /// fleet configuration. Throws std::runtime_error on malformed bytes;
  /// the controller is left empty in that case (the caller falls back to
  /// a full WAL replay).
  void restore_state(wire::ByteReader& r);

  // ---- observers (tests and the CLI) ----
  std::size_t resident_vms() const noexcept;
  /// Host of an external VM id; -1 when unknown, departed or unadmitted.
  std::int32_t host_of(std::uint64_t vm) const noexcept;
  std::size_t active_hosts() const;
  bool last_tick_degraded() const noexcept { return degraded_; }

 private:
  struct VmState {
    std::uint64_t id = 0;
    std::string app;
    bool resident = false;  ///< arrived and not departed
    bool admitted = false;  ///< currently holds a host
    std::uint64_t last_seen = 0;  ///< tick of the latest demand sample
    /// Demand ring buffer, newest overwrites oldest past the window.
    std::vector<ResourceVector> window;
    std::size_t window_next = 0;

    ResourceVector envelope() const noexcept;
    void observe(std::uint64_t tick, const ResourceVector& demand,
                 std::size_t window_cap);
  };

  void on_arrival(const VmArrivalFrame& frame);
  void on_departure(const VmDepartureFrame& frame);
  void on_telemetry(const HostTelemetryDeltaFrame& frame);
  /// Recompile spread rules over the resident fleet (called lazily at the
  /// next tick after membership changed).
  void rebuild_constraints();
  /// Drop every departed VM's slot, keeping survivors in dense order (the
  /// last step of tick()).
  void compact();

  ControllerConfig config_;
  std::uint64_t fleet_hash_ = 0;

  /// Dense per-VM slots in arrival order. A departed VM keeps its slot
  /// until the end of the next tick, when compact() drops it and shifts
  /// the survivors down in order, so state follows residents, not uptime.
  /// Decisions are unchanged by the shift: they name external ids, and
  /// every tie-break downstream (admission FIFO, spread groups, repair and
  /// drain scans) depends only on the relative dense order of residents.
  std::vector<VmState> vms_;
  /// External VM id -> dense index. Ordered map: admission FIFO and
  /// constraint groups must not depend on hash iteration order.
  std::map<std::uint64_t, std::size_t> index_of_;
  /// Host per dense VM (Placement::kUnplaced when none). Kept as a plain
  /// vector so arrivals append in O(1); tick() materializes a Placement
  /// over it for the admission/repair machinery and writes it back.
  std::vector<std::int32_t> host_of_;
  std::vector<std::size_t> pending_;  ///< dense ids awaiting admission, FIFO
  ConstraintSet constraints_;
  bool constraints_dirty_ = true;
  bool degraded_ = false;
};

}  // namespace vmcw::service
