// Controller checkpoints: bounded-time crash recovery for the daemon.
//
// A snapshot captures everything the daemon needs to resume *without*
// replaying the WAL from frame zero: the incremental controller's full
// resident state (IncrementalController::save_state), how many WAL frames
// that state covers, how many decision batches had been emitted at that
// point, and the ingest writer's cumulative-Ack marks per peer. Recovery
// becomes: load the newest valid snapshot, replay only the WAL suffix past
// frames_covered, and skip re-appending the decision batches already
// durable — byte-identical to a cold full-WAL replay (DESIGN.md §9).
//
// File format (little-endian, runtime/wire):
//
//   magic     "VMCWSNP1" (8 bytes)
//   version   u32
//   fleet     u64  fleet_config_hash of the producing controller
//   length    u64  payload byte count
//   checksum  u64  FNV-1a 64 over the payload
//   payload:
//     frames_covered    u64
//     batches_emitted   u64
//     shutdowns_covered u64
//     state             u64 length + IncrementalController::save_state bytes
//     ack_marks         u64 count + (str peer, u64 last_acked) each
//
// Writes are atomic and durable through write_file_atomic (runtime/
// telemetry): the bytes go to `path + ".tmp"`, are fdatasync'd, rename(2)
// publishes them and the directory is fsync'd — a crash mid-write leaves
// either the old snapshot or the new one, never a torn file. A snapshot that fails any
// validation (magic, version, checksum, fleet hash) is reported as such
// and the caller falls back to a full WAL replay; a snapshot is an
// optimization, never an additional source of truth.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vmcw::service {

struct SnapshotData {
  /// WAL frames (global ordinals [0, frames_covered)) whose effects are
  /// baked into controller_state; recovery replays only the suffix.
  std::uint64_t frames_covered = 0;
  /// Decision batches emitted since genesis when the snapshot was taken.
  std::uint64_t batches_emitted = 0;
  /// Shutdown frames among the covered prefix. A restarted daemon must
  /// count these toward its expected-shutdowns exit condition: the
  /// collectors that sent them got their Acks and will never resend, so
  /// without this a post-completion crash would wait forever.
  std::uint64_t shutdowns_covered = 0;
  /// IncrementalController::save_state bytes.
  std::vector<std::uint8_t> controller_state;
  /// Ingest cumulative-Ack high-water marks (peer -> last durable seq).
  /// At snapshot time these cover every durable WAL frame, so a collector
  /// resending pre-snapshot history is re-acked off the marks while
  /// post-snapshot resends go through the dedup filter seeded from the
  /// replayed suffix — the two mechanisms partition exactly.
  std::map<std::string, std::uint64_t> ack_marks;
};

/// Atomically write `data` to `path` (tmp + fdatasync + rename). Returns
/// false on any I/O failure; the previous snapshot, if any, survives.
bool write_snapshot(const std::string& path, std::uint64_t fleet_hash,
                    const SnapshotData& data);

enum class SnapshotStatus {
  kOk,
  kMissing,     ///< no readable file at path
  kCorrupt,     ///< bad magic/version/length/checksum or malformed payload
  kStaleFleet,  ///< valid file, but for a different fleet configuration
};

const char* to_string(SnapshotStatus status) noexcept;

/// Read and validate the snapshot at `path` against `fleet_hash`. `out`
/// is filled only on kOk.
SnapshotStatus read_snapshot(const std::string& path, std::uint64_t fleet_hash,
                             SnapshotData& out);

}  // namespace vmcw::service
