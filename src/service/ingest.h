// Network ingestion front-end: many collectors, one WAL, one total order.
//
// The daemon core (service/daemon) is WAL-first and strictly sequential;
// this layer puts a socket boundary in front of it without weakening
// either property. An IngestServer accepts framed telemetry from N
// concurrent collectors over Unix-domain and loopback TCP sockets and
// funnels every message through a single writer thread that owns the WAL
// append, the controller apply, and all sequencing decisions. *Arrival*
// order at the sockets is scheduling-dependent; the order the writer
// serializes into the WAL is the system's total order, and a replay of
// that WAL is byte-identical to the live run at any thread count — the
// PR-6 determinism contract, unchanged (DESIGN.md §8).
//
// Wire format, collector -> server: each message is
//
//   seq   u64  per-session sequence number (Hello uses 0)
//   frame ...  one service/protocol frame (kind | length | checksum | payload)
//
// Server -> collector responses are bare Ack / Reject frames. An Ack{s} is
// cumulative — every message with seq <= s is fdatasync'd in the WAL — and
// is the only signal a collector may drop a buffered frame on. A session
// starts with an enveloped Hello (version + fleet hash); the Hello is
// handshake-only and never appended to the WAL.
//
// Robustness model:
//  - torn input (a read ending mid-message) waits for more bytes; corrupt
//    input (checksum/decode failure, or a length field over the frame cap)
//    is quarantined: a typed Reject, the connection dropped, the buffered
//    bytes counted and discarded. Framing is gone, so the stream is too.
//  - a slow writer fills the bounded ingress queue; the poll loop then
//    stops *reading* the offending sockets (backpressure) instead of
//    buffering unboundedly. Collectors block; the WAL never does.
//  - a stalled WAL disk (fsync latency over the shed watermark) flips the
//    server into heartbeat-only shedding: control frames (Heartbeat,
//    Flush, Shutdown) are still ingested — ticks still run, so decision
//    batches carry the degraded marker once telemetry goes stale — while
//    data frames get Reject{kShedding} and are never acked. Acked implies
//    durable, so shedding can never drop an acked frame. While shedding,
//    the writer probes the WAL (an fsync with no append) before each
//    rejection, so recovery needs no cooperating traffic; the recover
//    threshold sits below the shed watermark (hysteresis).
//  - a failed WAL append or sync stops the server: the writer applies and
//    acks nothing of that batch or after it, closes the queue, and
//    failed() reports it, so an Ack always means durable.
//  - duplicates are safe end to end: re-sent messages (seq <= last ack)
//    are re-acked without re-appending, and across a daemon crash the
//    writer seeds a duplicate filter from the recovered WAL frames, so a
//    collector resending an already-durable frame gets an Ack, not a
//    second WAL record.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "runtime/bounded_queue.h"
#include "service/daemon.h"
#include "util/thread_annotations.h"

namespace vmcw::service {

struct IngestOptions {
  /// Unix-domain listen path ("" = no UDS listener).
  std::string unix_path;
  /// Loopback TCP listen port (-1 = no TCP listener; 0 = ephemeral, read
  /// the bound port back with tcp_port()).
  int tcp_port = -1;

  /// Ingress queue bound: decoded messages in flight between the poll
  /// loop and the WAL writer. The backpressure knob.
  std::size_t queue_capacity = 256;
  /// Hard cap on one frame's length field; a message claiming more is
  /// quarantined without allocating.
  std::size_t max_frame_bytes = std::size_t{16} << 20;

  /// Enter heartbeat-only shedding when the WAL's last fsync took at
  /// least this long (seconds).
  double shed_fsync_seconds = 0.050;
  /// Leave shedding once an fsync comes in at or under this (hysteresis;
  /// must be below the shed watermark).
  double recover_fsync_seconds = 0.010;

  /// Stop serving after this many Shutdown frames were ingested (one per
  /// collector by convention; 0 = serve until stop()).
  std::size_t expected_shutdowns = 1;

  /// Writer batch cap: how many queued messages one WAL append + single
  /// fdatasync may cover (0 = up to the queue capacity). The Ack is
  /// cumulative and deferred past the batch sync, so durability semantics
  /// are unchanged — only the fsync count drops.
  std::size_t max_batch_frames = 0;

  /// Liveness heartbeat file ("" = off): after each writer batch the
  /// server atomically rewrites this file with a monotonic progress
  /// counter. The supervisor's watchdog (tools/vmcw_supervisor) reads it
  /// to distinguish a hung daemon from an idle one.
  std::string health_path;
};

/// Counters over one serve run. Snapshot via IngestServer::stats().
struct IngestStats {
  std::size_t connections_accepted = 0;
  std::size_t messages_ingested = 0;    ///< durable in the WAL and applied
  std::size_t duplicates_dropped = 0;   ///< re-acked without re-appending
  std::size_t rejects_sent = 0;         ///< all codes
  std::size_t corrupt_frames = 0;       ///< quarantined: decode/checksum
  std::size_t oversized_frames = 0;     ///< quarantined: length over cap
  std::size_t bytes_quarantined = 0;    ///< buffered bytes discarded
  std::size_t out_of_order_rejects = 0;
  std::size_t shed_rejects = 0;         ///< data frames refused while shedding
  std::size_t shed_entries = 0;         ///< times shedding engaged
  std::size_t backpressure_stalls = 0;  ///< times a socket's reads paused
  std::size_t shutdowns_seen = 0;
  std::size_t wal_batches = 0;  ///< writer drains: one fdatasync each
};

/// Multi-producer socket front-end over one Daemon. Not copyable; start()
/// spawns the poll and writer threads, wait() joins them.
class IngestServer {
 public:
  IngestServer(Daemon& daemon, IngestOptions options);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Bind the listeners, seed the duplicate filter with the frames
  /// recovered by Daemon::open() (empty on a fresh start), seed the
  /// per-peer cumulative-Ack marks from a recovered snapshot's
  /// OpenResult::ack_marks (frames below a mark are re-acked off the mark
  /// — they are no longer in the replayed suffix), and spawn the poll +
  /// writer threads. Also wires this server's marks into the daemon's
  /// snapshot writer. `recovered_shutdowns` (OpenResult::shutdowns_recovered)
  /// counts Shutdown frames durable across the whole recovered stream —
  /// snapshot coverage plus suffix — toward expected_shutdowns: their
  /// collectors were acked and exited, so they will never resend, and a
  /// daemon restarted after ingest completed stops serving immediately
  /// instead of hanging for traffic that cannot arrive. Throws
  /// std::runtime_error when no listener could be bound.
  void start(const std::vector<Frame>& recovered_frames,
             const std::map<std::string, std::uint64_t>& recovered_marks = {},
             std::uint64_t recovered_shutdowns = 0);

  /// Block until the serve run ends: expected_shutdowns Shutdown frames
  /// ingested, stop() called, or a durability failure (see failed()).
  void wait();

  /// Did the serve run stop because a WAL append or sync, or a decision
  /// log append, failed? Then nothing of that writer batch or after it was
  /// applied or acked, and the daemon must restart into recovery.
  bool failed() const noexcept { return failed_.load(); }

  /// Request an orderly stop from any thread (idempotent).
  void stop();

  /// Bound TCP port (after start(); -1 when no TCP listener).
  int tcp_port() const noexcept { return bound_tcp_port_; }

  IngestStats stats() const VMCW_EXCLUDES(stats_mutex_);

  /// Is the server currently in heartbeat-only shedding?
  bool shedding() const VMCW_EXCLUDES(stats_mutex_);

 private:
  /// What the poll loop hands the writer.
  struct IngressItem {
    enum class Kind : std::uint8_t { kMessage, kGone };
    Kind kind = Kind::kMessage;
    std::uint64_t conn = 0;
    std::uint64_t seq = 0;
    Frame frame;
  };

  /// What the writer hands back for the poll loop to transmit.
  struct Response {
    std::uint64_t conn = 0;
    std::vector<std::uint8_t> bytes;  ///< encoded Ack/Reject frames
    bool close = false;               ///< drop the conn once flushed
  };

  /// Writer-owned per-connection session state. `expected` is pinned to
  /// last_acked + 1 at Hello time — never inferred from an incoming seq,
  /// so a corrupted seq word (the envelope is outside the frame checksum)
  /// can only draw a harmless re-Ack or an out-of-order reject, never
  /// advance the cumulative ack past an undelivered message.
  struct Session {
    std::string peer;
    bool synced = false;  ///< Hello accepted
    std::uint64_t expected = 0;
  };

  /// Poll-thread-owned per-connection transport state.
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    bool paused = false;      ///< reads masked (backpressure)
    bool want_close = false;  ///< close once `out` is flushed
    bool has_stalled = false;
    IngressItem stalled;  ///< decoded but not yet queued (queue full)
  };

  void poll_loop();
  void writer_loop();
  void process_batch(std::vector<IngressItem>& items);
  void respond(std::uint64_t conn, const Frame& frame, bool close);
  /// Re-read the WAL's last fsync latency into the shed state; returns
  /// whether the server sheds now.
  bool update_shed_state() VMCW_EXCLUDES(stats_mutex_);
  /// Fold the writer's counters of the batch into stats_, under one lock.
  void publish_stats() VMCW_EXCLUDES(stats_mutex_);
  void wake_poll() const noexcept;

  Daemon& daemon_;
  IngestOptions options_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;

  BoundedQueue<IngressItem> queue_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};

  mutable Mutex response_mutex_;
  std::vector<Response> responses_ VMCW_GUARDED_BY(response_mutex_);

  mutable Mutex stats_mutex_;
  IngestStats stats_ VMCW_GUARDED_BY(stats_mutex_);
  bool shedding_ VMCW_GUARDED_BY(stats_mutex_) = false;

  // Writer-owned (no lock: only writer_loop touches these after start()).
  std::map<std::uint64_t, Session> sessions_;
  std::map<std::string, std::uint64_t> last_acked_;
  std::map<std::uint64_t, std::size_t> dedup_;  ///< frame hash -> count
  std::size_t shutdowns_seen_ = 0;
  std::uint64_t batches_processed_ = 0;  ///< health-file progress counter
  EncodedRun run_;            ///< the batch's accepted frames, encoded once
  IngestStats batch_stats_;   ///< counters not yet published to stats_

  std::thread poll_thread_;
  std::thread writer_thread_;
  bool started_ = false;
};

}  // namespace vmcw::service
