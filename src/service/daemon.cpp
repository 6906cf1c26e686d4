#include "service/daemon.h"

#include <cstdio>
#include <stdexcept>

#include "service/snapshot.h"

namespace vmcw::service {

namespace {

void count_batch(DaemonStats& stats, const DecisionBatchFrame& batch) {
  ++stats.batches;
  if (batch.degraded) ++stats.degraded_ticks;
  for (const Decision& d : batch.decisions) {
    switch (d.action) {
      case DecisionAction::kAdmit:
        ++stats.admits;
        break;
      case DecisionAction::kMigrate:
        ++stats.migrations;
        break;
      case DecisionAction::kHold:
        ++stats.holds;
        break;
    }
  }
}

// Append a recomputed decision batch unless it is one of the `skip` batches
// already durable from before a crash, then count it.
void emit_batch(FrameLog& decisions, std::size_t& skip, bool durable,
                const DecisionBatchFrame& batch, DaemonStats& stats) {
  if (skip > 0)
    --skip;
  else if (!decisions.append(batch, durable))
    throw std::runtime_error("decision log append failed");
  count_batch(stats, batch);
}

}  // namespace

Daemon::Daemon(ControllerConfig config, Options options)
    : config_(config),
      options_(std::move(options)),
      fleet_hash_(fleet_config_hash(config_)),
      controller_(std::move(config)) {}

Daemon::OpenResult Daemon::open() {
  OpenResult result;
  // A fresh (non-resume) open truncates the WAL; a snapshot left over from
  // the previous stream would otherwise look usable against the new chain
  // once it grows past the old coverage, and restore state from the wrong
  // stream. Remove it with the stream it described.
  if (!options_.resume && !options_.snapshot_path.empty())
    std::remove(options_.snapshot_path.c_str());
  // Read the snapshot first: the WAL scan then builds only the frames past
  // its coverage, the ones this restart re-applies. Frames below it are
  // still checksummed and checked by the decoder's acceptance rule
  // (payload_decodes), so the chain is validated the same way.
  SnapshotData snap;
  const bool have_snapshot =
      options_.resume && !options_.snapshot_path.empty() &&
      read_snapshot(options_.snapshot_path, fleet_hash_, snap) ==
          SnapshotStatus::kOk;
  SegmentedFrameLog::Recovery wal = wal_.open(
      options_.wal_path, fleet_hash_, options_.resume, options_.segment_frames,
      have_snapshot ? snap.frames_covered : 0);
  // The decision log holds only DecisionBatch frames: its frame count is
  // the number of batches already durable.
  const FrameLog::Recovery decisions = decisions_.open(
      options_.decisions_path, fleet_hash_, options_.resume, 1, 0,
      kKeepNoFrames);
  result.wal_stale = wal.stale;
  result.decisions_stale = decisions.stale;
  result.batches_recovered = static_cast<std::size_t>(decisions.frame_count);

  // Use the snapshot only if its coverage sits inside what the WAL chain
  // still holds (a snapshot past the chain's end references
  // reclaimed-or-missing segments; one below the chain's base cannot
  // bridge the reclaimed prefix either way) and its controller bytes
  // restore cleanly. Anything else falls back to a full replay — which
  // requires the chain to still start at frame zero.
  batches_skipped_ = result.batches_recovered;
  frames_applied_ = wal.base_ordinal;
  batches_total_ = 0;
  if (have_snapshot && snap.frames_covered >= wal.base_ordinal &&
      snap.frames_covered <= wal.base_ordinal + wal.frame_count &&
      snap.batches_emitted <= result.batches_recovered) {
    wire::ByteReader r(snap.controller_state.data(),
                       snap.controller_state.size());
    try {
      controller_.restore_state(r);
      result.snapshot_loaded = true;
      result.snapshot_frames = snap.frames_covered;
      result.ack_marks = std::move(snap.ack_marks);
      frames_applied_ = snap.frames_covered;
      batches_total_ = snap.batches_emitted;
      shutdowns_applied_ = snap.shutdowns_covered;
      batches_skipped_ = result.batches_recovered -
                         static_cast<std::size_t>(snap.batches_emitted);
    } catch (const std::exception&) {
      // restore_state left the controller empty; full replay below.
    }
  }
  if (!result.snapshot_loaded && wal.base_ordinal > 0)
    throw std::runtime_error(
        "Daemon: WAL head was reclaimed and no usable snapshot covers it");
  // The snapshot was rejected after the scan dropped the frames it
  // covered; the full replay needs them back.
  if (!result.snapshot_loaded && wal.frames.size() < wal.frame_count)
    wal = wal_.open(options_.wal_path, fleet_hash_, /*resume=*/true,
                    options_.segment_frames);

  // Re-apply the recovered suffix — every frame the scan kept — recomputing
  // every decision batch but appending only the ones the crash lost: the
  // resumed decision log is byte-identical to an uninterrupted run.
  for (const Frame& frame : wal.frames) apply_frame(frame);
  result.frames_recovered = wal.frames.size();
  result.wal_frames = std::move(wal.frames);
  result.shutdowns_recovered = shutdowns_applied_;
  last_snapshot_frames_ = frames_applied_;
  last_snapshot_time_ = hooks_->now();
  return result;
}

DecisionBatchFrame Daemon::ingest(const Frame& frame) {
  single_.clear();
  single_.add(frame);
  if (!append_many(single_))
    throw std::runtime_error("Daemon: WAL append failed; frame not applied");
  return apply_frame(frame);
}

bool Daemon::append_many(const EncodedRun& run) {
  if (run.empty()) return true;
  return wal_.append(run) && (!options_.durable || wal_.sync());
}

DecisionBatchFrame Daemon::apply_frame(const Frame& frame) {
  ++stats_.frames;
  ++frames_applied_;
  if (std::holds_alternative<ShutdownFrame>(frame)) ++shutdowns_applied_;
  if (const auto* flush = std::get_if<FlushFrame>(&frame)) {
    DecisionBatchFrame batch = controller_.tick(flush->tick);
    ++batches_total_;
    emit_batch(decisions_, batches_skipped_, options_.durable, batch, stats_);
    return batch;
  }
  controller_.apply(frame);
  return DecisionBatchFrame{};
}

void Daemon::maybe_snapshot() {
  if (options_.snapshot_path.empty()) return;
  const bool frames_due =
      options_.snapshot_every_frames > 0 &&
      frames_applied_ - last_snapshot_frames_ >= options_.snapshot_every_frames;
  const bool time_due =
      options_.snapshot_every_seconds > 0.0 &&
      hooks_->now() - last_snapshot_time_ >= options_.snapshot_every_seconds;
  if (frames_due || time_due) write_snapshot_now();
}

bool Daemon::write_snapshot_now() {
  if (options_.snapshot_path.empty()) return false;
  SnapshotData snap;
  snap.frames_covered = frames_applied_;
  snap.batches_emitted = batches_total_;
  snap.shutdowns_covered = shutdowns_applied_;
  wire::ByteWriter w;
  controller_.save_state(w);
  snap.controller_state = w.bytes();
  if (marks_provider_) snap.ack_marks = marks_provider_();
  if (!write_snapshot(options_.snapshot_path, fleet_hash_, snap)) return false;
  ++stats_.snapshots_written;
  last_snapshot_frames_ = frames_applied_;
  last_snapshot_time_ = hooks_->now();
  if (!options_.retain_segments)
    stats_.segments_reclaimed += wal_.reclaim_before(frames_applied_);
  return true;
}

bool Daemon::close() {
  const bool wal_synced = wal_.sync();
  const bool decisions_synced = decisions_.sync();
  wal_.close();
  decisions_.close();
  return wal_synced && decisions_synced;
}

DaemonStats replay_wal(const std::string& wal_path,
                       const std::string& decisions_path,
                       const ControllerConfig& config, bool resume,
                       bool durable) {
  const WalContents wal = read_segmented_wal(wal_path);
  const std::uint64_t fleet_hash = fleet_config_hash(config);
  if (wal.fleet_hash != fleet_hash)
    throw std::runtime_error(
        "replay_wal: WAL was recorded for a different fleet configuration");
  if (wal.base_ordinal != 0)
    throw std::runtime_error(
        "replay_wal: WAL head segments were reclaimed; a cold replay needs "
        "the full chain (record with segment retention on)");

  IncrementalController controller(config);
  FrameLog decisions;
  const FrameLog::Recovery recovered =
      decisions.open(decisions_path, fleet_hash, resume, 1, 0, kKeepNoFrames);
  auto skip = static_cast<std::size_t>(recovered.frame_count);

  DaemonStats stats;
  for (const Frame& frame : wal.frames) {
    ++stats.frames;
    if (const auto* flush = std::get_if<FlushFrame>(&frame)) {
      emit_batch(decisions, skip, durable, controller.tick(flush->tick),
                 stats);
    } else {
      controller.apply(frame);
    }
  }
  if (!decisions.sync())
    throw std::runtime_error("replay_wal: decision log sync failed");
  decisions.close();
  return stats;
}

}  // namespace vmcw::service
