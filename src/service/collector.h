// Collector client: the producing end of the ingestion protocol.
//
// A CollectorClient delivers one stream of frames to an IngestServer with
// at-least-once transport and exactly-once WAL semantics: every frame is
// held until the server's cumulative Ack covers it, transient rejects
// (shedding, out-of-order) rewind to the first unacked message and back
// off, and a broken connection — a crashed daemon, an injected disconnect,
// a quarantine close — reconnects with capped exponential backoff,
// re-Hellos, and resends from wherever the server's Ack says the durable
// stream ends. Duplicate resends are safe by design: the server re-acks
// anything at or below its cumulative ack without re-appending.
//
// Fault injection plugs in through TransportFaults, a per-message hook
// surface the chaos layer adapts IoFaultPlan onto (service/io_fault_hooks):
// the client itself corrupts, splits, or drops its own writes on the
// plan's schedule, which is how CI drives a real socket through disconnect
// and corruption churn deterministically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.h"

namespace vmcw::service {

/// Per-message transport fault hooks (default: clean pipes). `message` is
/// the client's 0-based count of wire writes — retransmissions advance it,
/// so a resend can fail differently from the original attempt.
class TransportFaults {
 public:
  virtual ~TransportFaults() = default;

  /// Drop the connection right after writing this message?
  virtual bool disconnect_after(std::uint64_t message) {
    (void)message;
    return false;
  }

  /// Flip one byte of this message's encoding in flight?
  virtual bool corrupt_message(std::uint64_t message) {
    (void)message;
    return false;
  }

  /// Which byte corrupt_message() flips (size is the encoded length).
  virtual std::size_t corrupt_byte(std::uint64_t message, std::size_t size) {
    (void)message;
    (void)size;
    return 0;
  }

  /// Split this message into two short writes?
  virtual bool split_write(std::uint64_t message) {
    (void)message;
    return false;
  }

  /// Where a split write breaks a size-byte message (in [1, size-1]).
  virtual std::size_t split_point(std::uint64_t message, std::size_t size) {
    (void)message;
    return size / 2;
  }
};

/// Capped exponential backoff: min(cap, base * 2^attempt) milliseconds,
/// saturating instead of overflowing. Pure, so the retry schedule is
/// testable without a clock.
std::uint64_t reconnect_backoff_ms(std::uint64_t attempt,
                                   std::uint64_t base_ms,
                                   std::uint64_t cap_ms) noexcept;

struct CollectorOptions {
  /// Unix-domain connect path ("" = use TCP instead).
  std::string unix_path;
  /// Loopback TCP connect port (used when unix_path is empty).
  int tcp_port = -1;

  std::string peer = "collector";  ///< session identity (Hello.peer)
  std::uint64_t fleet_hash = 0;    ///< Hello binding (0 = unchecked)

  /// Max unacked messages in flight before the client waits for Acks.
  std::size_t window = 32;

  std::uint64_t backoff_base_ms = 2;
  std::uint64_t backoff_cap_ms = 200;
  /// No Ack/Reject for this long with messages in flight: the connection
  /// is presumed dead and the client reconnects. A TCP connect still in
  /// progress after this long is a failed attempt too.
  int response_timeout_ms = 5000;
  /// Consecutive failures (connect errors, a full listen backlog included,
  /// dead connections, transient rejects) before run() gives up. Any
  /// progress resets the count.
  std::size_t max_attempts = 200;

  /// While disconnected or backing off, merge superseded telemetry deltas
  /// in the not-yet-sent backlog: a VM keeps only its newest queued sample
  /// (newer deltas supersede older ones), so a reconnect flood does not
  /// replay stale state. Only frames past the send high-water mark are
  /// touched — anything ever written to a socket resends byte-identically,
  /// which is what the server's crash-recovery duplicate filter keys on.
  bool coalesce_telemetry = false;
};

struct CollectorStats {
  std::size_t messages_sent = 0;  ///< wire writes, retransmits included
  std::size_t retransmits = 0;
  std::size_t reconnects = 0;
  std::size_t transient_rejects = 0;  ///< out-of-order rejections seen
  std::size_t shed_backoffs = 0;      ///< shedding rejections seen
  std::size_t faults_injected = 0;    ///< corrupt + split + disconnect
  /// Times a (re)connect Ack named a durable mark *below* what we had
  /// already seen acked — a daemon restarted from a snapshot whose marks
  /// trail our history. The client rewinds and resends; the server
  /// re-acks/dedups, so the stream still lands exactly once.
  std::size_t server_rewinds = 0;
  std::size_t samples_coalesced = 0;  ///< telemetry samples merged away
};

class CollectorClient {
 public:
  explicit CollectorClient(CollectorOptions options,
                           TransportFaults* faults = nullptr);
  ~CollectorClient();

  CollectorClient(const CollectorClient&) = delete;
  CollectorClient& operator=(const CollectorClient&) = delete;

  /// Deliver every frame durably: blocks until the server's cumulative
  /// Ack covers the whole stream, reconnecting and resending as needed.
  /// Throws std::runtime_error on a fatal reject (kBadHello,
  /// kUnexpectedFrame) or when max_attempts consecutive failures exhaust
  /// the retry budget.
  CollectorStats run(const std::vector<Frame>& frames);

 private:
  struct Wire;  // socket + fault plumbing (collector.cpp)

  CollectorOptions options_;
  TransportFaults* faults_;
  int fd_ = -1;
};

/// Split one frame stream across `collectors` clients so that per-entity
/// order is preserved no matter how socket scheduling interleaves them:
/// Heartbeat/Flush ride with collector 0, telemetry follows its agent
/// (agent % collectors), arrivals/departures follow the VM's agent
/// ((vm % agents) % collectors — the churn generator's agent assignment).
/// Input Hello/Shutdown frames are dropped; each partition ends with its
/// own Shutdown (the server counts one per collector), and sessions carry
/// their own Hellos. `agents` is the churn stream's agent count (>= 1).
std::vector<std::vector<Frame>> partition_stream(
    const std::vector<Frame>& frames, std::size_t collectors,
    std::size_t agents);

}  // namespace vmcw::service
