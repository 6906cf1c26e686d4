// Telemetry write-ahead log: the durable frame stream under the daemon.
//
// The daemon is WAL-first: a frame is appended (and fdatasync'd) *before*
// the controller sees it, so a live session and a replay of its WAL feed
// the controller the exact same frame sequence — which, with a
// deterministic controller, makes live and replay decisions bit-identical.
// The decision log is the same format pointed at the output side: every
// DecisionBatch the controller emits is appended before it is reported, so
// a SIGKILL between any two batches leaves a resumable prefix.
//
// Both are thin typed wrappers over the one durable record log
// (runtime/record_log), which owns the header, the framing, the batched
// checksum scan, torn-tail truncation and every write and sync. What is
// left here is the frame WAL's own part:
//  - the header: magic "VMCWTWL1", version, fleet-config hash; version 2
//    adds a base ordinal, the global frame index of the file's first
//    record. A log for another fleet shape is stale and rewritten, so
//    resuming never mixes streams across fleet configurations.
//  - the records: one protocol frame each (kinds Hello..Reject), decoded
//    by service/protocol. A resuming daemon builds only the frames at or
//    past its snapshot's coverage; every other intact frame is checksummed
//    and run through payload_decodes(), the decoder's acceptance rule, so
//    the scan keeps the same prefix without building what it drops.
//  - the segment chain (SegmentedFrameLog): one logical WAL split into
//    sealed version-2 segment files (`<base>.segNNNNNN`), validated by
//    base continuity at open. Segments older than the newest durable
//    snapshot are reclaimable (service/snapshot, DESIGN.md §9), and a torn
//    tail is confined to the newest segment.
//  - the failure policy: an open that cannot create the file throws; a
//    failed append or sync returns false and leaves the log closed, which
//    the daemon turns into a stop (no Ack for a frame that is not durable).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "runtime/record_log.h"
#include "service/protocol.h"

namespace vmcw::service {

/// Frames encoded back to back as WAL records (encode_frame bytes), and
/// where each record ends: what one batched WAL append writes.
struct EncodedRun {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> ends;  ///< ends[i]: offset just past record i

  /// Encode `frame` as the run's last record.
  void add(const Frame& frame) {
    encode_frame_into(frame, bytes);
    ends.push_back(bytes.size());
  }
  /// Drop the last record again.
  void pop_back() {
    ends.pop_back();
    bytes.resize(ends.empty() ? 0 : ends.back());
  }
  /// The bytes of records [first, last).
  std::span<const std::uint8_t> records(std::size_t first,
                                        std::size_t last) const {
    const std::size_t from = first == 0 ? 0 : ends[first - 1];
    return {bytes.data() + from, ends[last - 1] - from};
  }
  std::size_t size() const noexcept { return ends.size(); }
  bool empty() const noexcept { return ends.empty(); }
  void clear() noexcept {
    bytes.clear();
    ends.clear();
  }
};

/// Append-side handle on a frame WAL (telemetry input or decision output).
class FrameLog {
 public:
  /// What open() recovered from an existing log.
  struct Recovery {
    /// Intact frames at ordinals >= keep_from, in append order.
    std::vector<Frame> frames;
    std::uint64_t frame_count = 0;  ///< intact frames, kept or not
    bool stale = false;         ///< existing log was for a different fleet
    bool torn_tail = false;     ///< trailing partial/corrupt frame dropped
    std::size_t bytes_discarded = 0;  ///< size of the discarded tail
  };

  /// Open (creating if needed) the log at `path` bound to `fleet_hash`.
  /// With `resume`, an existing matching log's intact frames are
  /// recovered; without it — or when the log is stale or unreadable — the
  /// file is rewritten with a fresh header. Throws std::runtime_error when
  /// the file cannot be opened or rewritten. `version` selects the header
  /// layout: 1 is the standalone single-file WAL; 2 stamps `base_ordinal`
  /// (the global index of the file's first frame) for segment-chain files
  /// — SegmentedFrameLog is the only caller that passes 2. Every intact
  /// frame is checksummed and checked by payload_decodes(); only those
  /// whose ordinal (base_ordinal + index) is at least `keep_from` are
  /// built and returned.
  Recovery open(const std::string& path, std::uint64_t fleet_hash, bool resume,
                std::uint32_t version = 1, std::uint64_t base_ordinal = 0,
                std::uint64_t keep_from = 0);

  bool is_open() const { return log_.is_open(); }

  /// Append one frame as a single write(). With `sync` (the default) the
  /// record is fdatasync'd before returning — the WAL-first guarantee;
  /// bulk producers (the churn generator) batch with sync=false and call
  /// sync() once at the end. Returns false when the frame may not be
  /// durable: the log was closed, or the write or sync failed (which
  /// closes it). Every sync's latency is recorded into MetricsRegistry
  /// ("service.wal_fsync_seconds") and kept readable via
  /// last_sync_seconds() — one measurement shared by the telemetry
  /// sidecars and the ingestion stall detector.
  bool append(const Frame& frame, bool sync = true) {
    return log_.append(encode_frame(frame), sync);
  }

  /// fdatasync every append so far; false as append() reports it.
  bool sync() { return log_.sync(); }
  void close() { log_.close(); }

  /// Install I/O hooks (nullptr restores the real default). Call before
  /// sharing the log across threads; the pointer itself is unguarded.
  void set_io_hooks(WalIoHooks* hooks) noexcept { log_.set_io_hooks(hooks); }

  /// Latency of the most recent fdatasync (seconds); 0 before the first.
  /// The ingestion front-end's WAL-stall detector reads this after every
  /// durable append.
  double last_sync_seconds() const { return log_.last_sync_seconds(); }

 private:
  friend class SegmentedFrameLog;

  /// Create or truncate `path` to a fresh header; false when that fails.
  bool create(const std::string& path, std::uint64_t fleet_hash,
              std::uint32_t version, std::uint64_t base_ordinal);

  RecordLog log_{"service.wal_fsync_seconds"};
};

/// A recorded WAL, read without modifying the file (replay mode).
struct WalContents {
  std::uint64_t fleet_hash = 0;  ///< binding hash from the header
  std::uint32_t version = 1;     ///< header version (2 = segment file)
  /// Global frame index of frames[0]; always 0 for version-1 files. After
  /// segment reclamation a chain's head base records how many frames of
  /// history were compacted away into the snapshot.
  std::uint64_t base_ordinal = 0;
  std::vector<Frame> frames;  ///< intact frames, in append order
  bool torn_tail = false;     ///< file ends in a partial/corrupt frame
};

/// `keep_from` that stores no frames: the caller wants only the counts.
inline constexpr std::uint64_t kKeepNoFrames =
    std::numeric_limits<std::uint64_t>::max();

/// Read a frame WAL read-only. Throws std::runtime_error when the file
/// cannot be read or its header is not a frame WAL; a torn tail is not an
/// error (the intact prefix is returned with torn_tail set).
WalContents read_frame_log(const std::string& path);

/// Read a logical WAL that may be either a single version-1 file at `path`
/// or a segment chain (`path + ".segNNNNNN"` files). Segments are stitched
/// in base-ordinal order; chain breaks (gap, fleet mismatch, torn tail in
/// a sealed segment) end the stitch there, mirroring what
/// SegmentedFrameLog::open would keep. Throws when nothing readable exists.
WalContents read_segmented_wal(const std::string& path);

/// Path of segment file `index` of the chain rooted at `path`
/// (e.g. "live.wal.seg000003").
std::string segment_path(const std::string& path, std::size_t index);

/// One logical WAL split across sealed, checksummed segment files, plus an
/// active tail segment. With `segment_frames == 0` this is byte-compatible
/// legacy mode: a single version-1 file at `path`, exactly FrameLog.
///
/// Rotation: once the active segment holds `segment_frames` frames, the
/// next append seals it (fdatasync + close) and opens the next segment
/// with a version-2 header carrying the chain's running base ordinal.
/// Retention: reclaim_before(n) unlinks only sealed segments whose entire
/// range is below n — the caller passes the newest durable snapshot's
/// frames_covered, so the active segment and every post-snapshot segment
/// are never deleted (DESIGN.md §9 retention invariant).
///
/// Rotation state is writer-thread-owned like the rest of the append path;
/// the inner FrameLog keeps its own lock for the observational readers
/// (last_sync_seconds).
class SegmentedFrameLog {
 public:
  struct Recovery {
    /// Intact frames across the kept chain at ordinals >= keep_from.
    std::vector<Frame> frames;
    /// Intact frames across the kept chain, kept or not: the chain ends
    /// at ordinal base_ordinal + frame_count.
    std::uint64_t frame_count = 0;
    bool stale = false;         ///< existing chain was for a different fleet
    bool torn_tail = false;     ///< trailing partial/corrupt frame dropped
    /// Global ordinal of the chain's first frame; > 0 when pre-snapshot
    /// segments were reclaimed before the crash (the caller needs a
    /// snapshot covering at least this many frames, or recovery must
    /// refuse).
    std::uint64_t base_ordinal = 0;
    std::size_t segments = 0;  ///< segment files kept (0 in legacy mode)
  };

  /// Open the chain at `path`, recovering it with `resume`. Each segment
  /// file is read once; every intact frame is checksummed and checked by
  /// payload_decodes(), so chain validation, unlinks and torn-tail
  /// truncation do not depend on `keep_from`, but only frames at ordinals
  /// >= keep_from are built and returned.
  Recovery open(const std::string& path, std::uint64_t fleet_hash, bool resume,
                std::uint64_t segment_frames, std::uint64_t keep_from = 0);

  /// Append a run of records, rotating whenever the active segment fills:
  /// one write per segment slice, split exactly where per-frame appends
  /// would rotate, so every segment file is byte-identical to theirs. Does
  /// not sync. False as FrameLog::append reports it (a failed rotation
  /// too); the log is then closed, and its files end in an intact prefix
  /// plus at most one torn record.
  bool append(const EncodedRun& run);
  /// Append one frame through the run path; with `sync`, fdatasync it.
  bool append(const Frame& frame, bool sync = true);
  bool sync() { return log_.sync(); }
  void close() { log_.close(); }
  bool is_open() const { return log_.is_open(); }
  double last_sync_seconds() const { return log_.last_sync_seconds(); }
  void set_io_hooks(WalIoHooks* hooks) noexcept { log_.set_io_hooks(hooks); }

  /// Global ordinal the next append would get (== total durable frames).
  std::uint64_t next_ordinal() const noexcept {
    return active_base_ + active_count_;
  }

  /// Unlink sealed segments wholly below `ordinal` (never the active one).
  /// Returns how many files were reclaimed.
  std::size_t reclaim_before(std::uint64_t ordinal);

  /// Sealed + active segment files on disk (0 in legacy mode).
  std::size_t segment_count() const noexcept {
    return segment_frames_ == 0 ? 0 : sealed_.size() + 1;
  }

 private:
  struct Segment {
    std::string path;
    std::uint64_t base = 0;
    std::uint64_t frames = 0;
  };

  /// Seal the active segment (fdatasync + close) and start the next;
  /// false when either step fails, which leaves the log closed.
  bool rotate();

  FrameLog log_;
  EncodedRun single_;  ///< append(Frame)'s reused one-record run
  std::string path_;
  std::uint64_t fleet_hash_ = 0;
  std::uint64_t segment_frames_ = 0;  ///< 0 = legacy single-file mode
  std::vector<Segment> sealed_;
  std::size_t active_index_ = 1;
  std::uint64_t active_base_ = 0;
  std::uint64_t active_count_ = 0;
};

}  // namespace vmcw::service
