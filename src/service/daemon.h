// The online consolidation daemon: WAL-first frame ingestion around the
// incremental controller.
//
// Two modes share one code path:
//
//  - live: ingest() appends each frame to the telemetry WAL (fdatasync'd)
//    *before* the controller sees it; a Flush frame additionally runs the
//    controller tick and appends the DecisionBatch to the decision log
//    before reporting it. Socket ingestion is a thin producer in front of
//    ingest() — the WAL, not the socket, is the source of truth.
//  - replay: replay_wal() feeds a recorded WAL's frames through the same
//    apply/tick sequence. Because live mode is WAL-first, the decision
//    log of a replay is byte-identical to the live session's.
//
// Resume after a crash: the decision log's intact prefix (K batches) is
// recovered, the input frames are re-applied recomputing every batch, and
// the first K recomputed batches are skipped instead of re-appended — the
// resumed log is byte-identical to an uninterrupted run. Both logs carry
// the fleet-config hash, so a stream is never resumed against a different
// fleet shape.
//
// Bounded recovery (DESIGN.md §9): with a snapshot path configured, the
// daemon periodically checkpoints the controller (service/snapshot) and,
// with segment rotation on, reclaims WAL segments older than the newest
// durable snapshot. Resume then restores the snapshot and re-applies only
// the WAL suffix past its coverage — the decision log stays byte-identical
// to a cold full-WAL replay, but restart cost is bounded by the snapshot
// cadence instead of total uptime.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "service/controller.h"
#include "service/telemetry_log.h"

namespace vmcw::service {

/// Running decision totals, updated per emitted batch.
struct DaemonStats {
  std::size_t frames = 0;   ///< input frames applied (Flush included)
  std::size_t batches = 0;  ///< DecisionBatch frames emitted
  std::size_t admits = 0;
  std::size_t migrations = 0;
  std::size_t holds = 0;
  std::size_t degraded_ticks = 0;
  std::size_t snapshots_written = 0;
  std::size_t segments_reclaimed = 0;  ///< sealed WAL segments unlinked
};

class Daemon {
 public:
  struct Options {
    std::string wal_path;        ///< telemetry WAL (input side)
    std::string decisions_path;  ///< decision log (output side)
    bool resume = false;  ///< recover both logs instead of truncating
    bool durable = true;  ///< fdatasync each append (off: bulk benching)
    /// Frames per WAL segment; 0 keeps the legacy single-file WAL.
    std::uint64_t segment_frames = 0;
    /// Snapshot file path; empty disables checkpointing entirely.
    std::string snapshot_path;
    /// Checkpoint every N applied frames (0 = no frame-count trigger).
    std::uint64_t snapshot_every_frames = 0;
    /// Checkpoint every M seconds of WalIoHooks::now() time (0 = off).
    double snapshot_every_seconds = 0.0;
    /// Keep pre-snapshot segments instead of reclaiming them (a replay
    /// harness that wants the full chain on disk sets this).
    bool retain_segments = false;
  };

  struct OpenResult {
    std::size_t frames_recovered = 0;   ///< input frames re-applied (suffix)
    std::size_t batches_recovered = 0;  ///< decision batches kept durable
    bool wal_stale = false;
    bool decisions_stale = false;
    bool snapshot_loaded = false;
    /// Frames the loaded snapshot covered (0 when none): the recovery
    /// replayed only the WAL past this ordinal.
    std::uint64_t snapshot_frames = 0;
    /// Cumulative-Ack high-water marks persisted with the snapshot; the
    /// ingestion front-end seeds its per-peer ack state from them so a
    /// collector resending pre-snapshot history is re-acked off the mark
    /// (the frames themselves are no longer in the replayed suffix).
    std::map<std::string, std::uint64_t> ack_marks;
    /// The re-applied input frames themselves. The ingestion front-end
    /// seeds its duplicate filter from these: a collector resending a
    /// frame that was durable before the crash must be acked, not
    /// re-appended (exactly-once in the WAL across daemon restarts).
    std::vector<Frame> wal_frames;
    /// Shutdown frames durable across the whole recovered stream: the
    /// snapshot's count plus the replayed suffix. The ingestion front-end
    /// seeds its expected-shutdowns exit condition from this — a collector
    /// whose Shutdown was acked before the crash has exited and will never
    /// resend it, so a daemon restarted after ingest completed must exit
    /// promptly instead of waiting for traffic that cannot arrive.
    std::uint64_t shutdowns_recovered = 0;
  };

  Daemon(ControllerConfig config, Options options);

  /// Open both logs; with resume, restore the newest valid snapshot (if
  /// configured) and re-apply the recovered input suffix (recomputing
  /// decision batches, skipping the append of the ones already durable).
  /// The controller afterwards sits exactly where the crashed session
  /// left it. Throws std::runtime_error when the WAL head was reclaimed
  /// and no usable snapshot covers the missing prefix.
  OpenResult open();

  /// WAL-first ingestion of one frame. Flush frames run the controller
  /// tick and append the batch to the decision log. Requires open().
  /// Throws std::runtime_error, without applying the frame, when its WAL
  /// append fails, and when a decision batch cannot be appended.
  DecisionBatchFrame ingest(const Frame& frame);

  /// WAL-first ingestion, step 1, and the WAL's only append entry point:
  /// write the encoded run (one write per segment slice), then issue one
  /// fdatasync for the whole of it — the writer thread's amortization (one
  /// sync per queue drain instead of one per frame). Returns whether the
  /// whole run is durable (written, and synced when Options::durable).
  /// Callers apply the run's frames afterwards via apply_frame(), in run
  /// order, acking only once this returned true (the cumulative Ack needs
  /// the durability, not the apply); after false the WAL is closed and no
  /// frame of the run may be applied or acked.
  bool append_many(const EncodedRun& run);

  /// Batched ingestion, step 2: feed one already-durable frame to the
  /// controller (the apply half of ingest(), throws alike).
  DecisionBatchFrame apply_frame(const Frame& frame);

  /// Checkpoint now if the cadence (frames or seconds) says so. Callers
  /// must invoke this only when every durable WAL frame has been applied
  /// *and* is covered by the ack-marks provider — the ingest writer calls
  /// it at batch boundaries, after its per-peer marks advanced.
  void maybe_snapshot();

  /// Unconditional checkpoint; returns false if writing failed (the
  /// previous snapshot survives). Reclaims pre-snapshot segments on
  /// success unless Options::retain_segments.
  bool write_snapshot_now();

  /// Provider of the ingest writer's cumulative-Ack marks, captured into
  /// every snapshot. Called synchronously from maybe_snapshot(), i.e. on
  /// whatever thread ingests — the provider must be safe there.
  void set_ack_marks_provider(
      std::function<std::map<std::string, std::uint64_t>()> provider) {
    marks_provider_ = std::move(provider);
  }

  /// Sync and close both logs; false when either sync failed.
  bool close();

  const IncrementalController& controller() const noexcept {
    return controller_;
  }
  const DaemonStats& stats() const noexcept { return stats_; }

  /// Global ordinal of the next WAL frame (== frames durable since
  /// genesis, surviving segment reclamation and restarts).
  std::uint64_t frames_applied() const noexcept { return frames_applied_; }

  /// Install I/O hooks on both logs (nullptr restores the real default);
  /// how tests and the chaos harness inject write faults and fsync
  /// stalls. Call before open().
  void set_io_hooks(WalIoHooks* hooks) noexcept {
    wal_.set_io_hooks(hooks);
    decisions_.set_io_hooks(hooks);
    hooks_ = hooks != nullptr ? hooks : &default_wal_io_hooks();
  }

  /// Latency of the telemetry WAL's most recent fdatasync (seconds); what
  /// the ingestion front-end's stall detector samples after each durable
  /// append.
  double last_fsync_seconds() const { return wal_.last_sync_seconds(); }

  /// Re-fsync the telemetry WAL without appending anything: the shed
  /// detector's recovery probe. While every incoming data frame is being
  /// rejected, nothing would otherwise measure the disk, so the ingest
  /// writer probes before each shed rejection and recovers the moment a
  /// probe comes back under the recovery threshold. False when the sync
  /// failed, which closes the WAL.
  bool probe_wal() { return wal_.sync(); }

 private:
  ControllerConfig config_;
  Options options_;
  std::uint64_t fleet_hash_ = 0;
  IncrementalController controller_;
  SegmentedFrameLog wal_;
  EncodedRun single_;   ///< ingest()'s reused one-frame run
  FrameLog decisions_;  ///< never segmented: replay identity needs it whole
  WalIoHooks* hooks_ = &default_wal_io_hooks();
  std::size_t batches_skipped_ = 0;  ///< recovered batches left to skip
  std::uint64_t frames_applied_ = 0;  ///< global frame ordinal since genesis
  std::uint64_t batches_total_ = 0;   ///< batches emitted since genesis
  std::uint64_t last_snapshot_frames_ = 0;
  double last_snapshot_time_ = 0.0;
  std::uint64_t shutdowns_applied_ = 0;  ///< Shutdown frames since genesis
  std::function<std::map<std::string, std::uint64_t>()> marks_provider_;
  DaemonStats stats_;
};

/// Replay a recorded WAL (single file or segment chain) end to end,
/// writing (or with resume, completing) the decision log at
/// `decisions_path`. The input WAL is opened read-only and never modified.
/// Throws std::runtime_error when the WAL cannot be read, was recorded for
/// a different fleet configuration, or its head segments were reclaimed (a
/// cold replay needs the full chain; use --keep-segments when recording).
DaemonStats replay_wal(const std::string& wal_path,
                       const std::string& decisions_path,
                       const ControllerConfig& config, bool resume,
                       bool durable = true);

}  // namespace vmcw::service
