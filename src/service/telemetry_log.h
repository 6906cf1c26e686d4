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
// The format extends the sweep-journal idiom (sweep/journal) to an
// open-ended stream: a header binds the file to one fleet configuration
// (magic + version + fleet-config hash), and each record is one protocol
// frame — already kind/length/checksum framed by service/protocol — written
// with a single write(). Recovery at open():
//  - header missing/unreadable or fleet hash mismatch: the log is *stale*
//    (the fleet shape changed); it is truncated and rewritten. Resuming
//    never mixes streams across fleet configurations.
//  - a torn tail (partial frame from a crash, or a checksum mismatch): the
//    tail is truncated away and every intact frame before it is returned.
//
// Version 2 headers add a base ordinal — the global frame index of the
// file's first record — which is what lets SegmentedFrameLog split one
// logical WAL into sealed segment files (`<base>.segNNNNNN`): the chain is
// validated by base continuity at open, segments older than the newest
// durable snapshot are reclaimable (service/snapshot, DESIGN.md §9), and a
// torn tail is still confined to the newest segment.
//
// Reading a log checks every byte once: the scan walks a batch of frame
// headers, verifies the batch's payload checksums in interleaved FNV-1a
// lanes, then parses each payload. It keeps exactly the frames a
// decode_frame loop would, but stores only those at or past the caller's
// `keep_from` ordinal; a resuming daemon passes its snapshot's coverage, so
// frames the snapshot already holds are validated and then dropped.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "util/thread_annotations.h"

namespace vmcw::service {

/// Pluggable file-I/O + clock surface under FrameLog appends. The default
/// implementation is the real thing (::write / ::fdatasync / a monotonic
/// clock); the chaos layer substitutes hooks that inject partial writes,
/// EINTR, write errors and fsync stalls on a deterministic schedule
/// (chaos/io_faults), which is how the ingestion path's WAL-stall shedding
/// is tested without a real slow disk. `now()` is the *only* sanctioned
/// wall-clock read in the service layer (vmcw_lint.conf): it feeds the
/// fsync-latency measurement, which is observational (metrics + the shed
/// watermark) and never reaches decision bytes.
class WalIoHooks {
 public:
  virtual ~WalIoHooks() = default;

  /// write(2) semantics: bytes written, or -1 with errno set. May write
  /// short; FrameLog retries short writes and EINTR.
  virtual long write_some(int fd, const std::uint8_t* data, std::size_t size);

  /// fdatasync(2) semantics: 0 on success, -1 with errno set.
  virtual int sync(int fd);

  /// Monotonic seconds; only used to measure sync() latency.
  virtual double now();
};

/// The process-default hooks instance (real I/O).
WalIoHooks& default_wal_io_hooks();

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

  FrameLog() = default;
  ~FrameLog();

  FrameLog(const FrameLog&) = delete;
  FrameLog& operator=(const FrameLog&) = delete;

  /// Open (creating if needed) the log at `path` bound to `fleet_hash`.
  /// With `resume`, an existing matching log's intact frames are
  /// recovered; without it — or when the log is stale or unreadable — the
  /// file is rewritten with a fresh header. Throws std::runtime_error only
  /// when the path cannot be created at all. `version` selects the header
  /// layout: 1 is the standalone single-file WAL; 2 stamps `base_ordinal`
  /// (the global index of the file's first frame) for segment-chain files
  /// — SegmentedFrameLog is the only caller that passes 2. Every intact
  /// frame is checksummed and parsed, but only those whose ordinal
  /// (base_ordinal + index) is at least `keep_from` are returned.
  Recovery open(const std::string& path, std::uint64_t fleet_hash, bool resume,
                std::uint32_t version = 1, std::uint64_t base_ordinal = 0,
                std::uint64_t keep_from = 0) VMCW_EXCLUDES(mutex_);

  bool is_open() const VMCW_EXCLUDES(mutex_) {
    MutexLock lk(mutex_);
    return fd_ >= 0;
  }

  /// Append one frame as a single write(). With `sync` (the default) the
  /// record is fdatasync'd before returning — the WAL-first guarantee;
  /// bulk producers (the churn generator) batch with sync=false and call
  /// sync() once at the end. Interrupted (EINTR) and short writes are
  /// retried; a hard write error closes the log rather than risk a torn
  /// interleave. Every synced append's fsync latency is recorded into
  /// MetricsRegistry ("service.wal_fsync_seconds") and kept readable via
  /// last_sync_seconds() — one measurement shared by the telemetry
  /// sidecars and the ingestion stall detector.
  void append(const Frame& frame, bool sync = true) VMCW_EXCLUDES(mutex_);

  void sync() VMCW_EXCLUDES(mutex_);
  void close() VMCW_EXCLUDES(mutex_);

  /// Install I/O hooks (nullptr restores the real default). Call before
  /// sharing the log across threads; the pointer itself is unguarded.
  void set_io_hooks(WalIoHooks* hooks) noexcept {
    hooks_ = hooks != nullptr ? hooks : &default_wal_io_hooks();
  }

  /// Latency of the most recent fdatasync (seconds); 0 before the first.
  /// The ingestion front-end's WAL-stall detector reads this after every
  /// durable append.
  double last_sync_seconds() const VMCW_EXCLUDES(mutex_) {
    MutexLock lk(mutex_);
    return last_sync_seconds_;
  }

 private:
  friend class SegmentedFrameLog;

  /// Reopen for append a log file whose intact prefix [0, valid_end) of
  /// `size` bytes the caller has just scanned, so it is not read again:
  /// the torn tail past valid_end, if any, is truncated away. Returns false
  /// when the tail cannot be trimmed; the file is then rewritten empty
  /// under a fresh header, as open() does.
  bool reopen_scanned(const std::string& path, std::uint64_t fleet_hash,
                      std::uint32_t version, std::uint64_t base_ordinal,
                      std::size_t valid_end, std::size_t size)
      VMCW_EXCLUDES(mutex_);

  void open_fd_locked(const std::string& path) VMCW_REQUIRES(mutex_);
  bool trim_locked(std::size_t valid_end, std::size_t size)
      VMCW_REQUIRES(mutex_);
  void rewrite_locked(const std::string& path, std::uint64_t fleet_hash,
                      std::uint32_t version, std::uint64_t base_ordinal)
      VMCW_REQUIRES(mutex_);
  void close_locked() VMCW_REQUIRES(mutex_);
  void sync_locked() VMCW_REQUIRES(mutex_);

  mutable Mutex mutex_;
  int fd_ VMCW_GUARDED_BY(mutex_) = -1;
  double last_sync_seconds_ VMCW_GUARDED_BY(mutex_) = 0.0;
  WalIoHooks* hooks_ = &default_wal_io_hooks();
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

/// One frame's place in a byte image, as its header declares it.
struct FrameExtent {
  FrameKind kind = FrameKind::kHello;
  const std::uint8_t* payload = nullptr;
  std::uint64_t length = 0;    ///< payload bytes
  std::uint64_t checksum = 0;  ///< FNV-1a 64 the header declares
};

/// Append to `out` the extents of up to `max_frames` frames from the front
/// of [data, data+size), stopping before the first whose kind is unknown
/// or whose payload runs past the buffer (a torn frame). Payloads are not
/// looked at.
void walk_frame_extents(const std::uint8_t* data, std::size_t size,
                        std::size_t max_frames, std::vector<FrameExtent>& out);

/// Index of the first extent whose payload does not hash to its checksum,
/// or extents.size() when all match — the same answer as a serial
/// wire::fnv1a64 loop. The hashes run in four interleaved FNV-1a chains,
/// one frame per chain, so one frame's multiplies overlap another's
/// instead of each byte waiting on the last.
std::size_t first_checksum_mismatch(const std::vector<FrameExtent>& extents);

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
  /// file is read once; every intact frame is checksummed and parsed, so
  /// chain validation, unlinks and torn-tail truncation do not depend on
  /// `keep_from`, but only frames at ordinals >= keep_from are returned.
  Recovery open(const std::string& path, std::uint64_t fleet_hash, bool resume,
                std::uint64_t segment_frames, std::uint64_t keep_from = 0);

  /// Append one frame, rotating first when the active segment is full.
  void append(const Frame& frame, bool sync = true);
  void sync() { log_.sync(); }
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

  void rotate();

  FrameLog log_;
  std::string path_;
  std::uint64_t fleet_hash_ = 0;
  std::uint64_t segment_frames_ = 0;  ///< 0 = legacy single-file mode
  std::vector<Segment> sealed_;
  std::size_t active_index_ = 1;
  std::uint64_t active_base_ = 0;
  std::uint64_t active_count_ = 0;
};

}  // namespace vmcw::service
