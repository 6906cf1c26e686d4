// Typed wire protocol of the online consolidation daemon.
//
// Every byte that crosses the daemon's boundary — telemetry in, decisions
// out, and both durable logs — is one *frame*: a kind tag, a length, an
// FNV-1a 64 checksum, and a typed payload serialized through runtime/wire
// (little-endian integers, doubles as IEEE-754 bit patterns). A frame
// either decodes to exactly its typed struct or throws; there is no
// partially-understood input. One check, payload_decodes(), decides
// whether a payload decodes, and it accepts only canonical encodings.
// Because encoding is a pure function of the struct, a decoded-then-
// re-encoded frame is byte-identical — the property the WAL replay and
// resume paths (service/telemetry_log, service/daemon) build their
// determinism guarantees on.
//
// Layout of one frame on the wire / on disk:
//
//   kind     u8   FrameKind (1..10); anything else is a protocol error
//   length   u64  payload byte count
//   checksum u64  FNV-1a 64 over the payload bytes
//   payload  ...  typed fields, see encode_* in protocol.cpp
//
// Versioning: Hello carries kProtocolVersion; a peer (or a recorded WAL)
// speaking a different version is rejected at the session/open boundary,
// not per frame.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace vmcw::service {

inline constexpr std::uint32_t kProtocolVersion = 1;

enum class FrameKind : std::uint8_t {
  kHello = 1,      ///< session start: version + fleet-config hash
  kHeartbeat = 2,  ///< liveness marker, no placement effect
  kFlush = 3,      ///< tick boundary: the controller decides now
  kShutdown = 4,   ///< orderly end of the stream
  kHostTelemetryDelta = 5,
  kVmArrival = 6,
  kVmDeparture = 7,
  kDecisionBatch = 8,
  // Ingestion session responses (server -> collector, never WAL'd):
  kAck = 9,     ///< everything up to Ack::seq is durable in the WAL
  kReject = 10, ///< typed refusal of one message (see RejectCode)
};

const char* to_string(FrameKind kind) noexcept;

struct HelloFrame {
  std::uint32_t version = kProtocolVersion;
  /// fleet_config_hash() of the producer's ControllerConfig; binds a
  /// stream to one exact fleet shape the way the sweep journal binds to
  /// one grid.
  std::uint64_t fleet_hash = 0;
  std::string peer;  ///< producer identity, for logs only

  bool operator==(const HelloFrame&) const = default;
};

struct HeartbeatFrame {
  std::uint64_t tick = 0;

  bool operator==(const HeartbeatFrame&) const = default;
};

struct FlushFrame {
  std::uint64_t tick = 0;

  bool operator==(const FlushFrame&) const = default;
};

struct ShutdownFrame {
  std::uint64_t tick = 0;

  bool operator==(const ShutdownFrame&) const = default;
};

/// One VM's demand observation inside a telemetry delta.
struct VmSample {
  std::uint64_t vm = 0;
  double cpu_rpe2 = 0.0;
  double memory_mb = 0.0;

  bool operator==(const VmSample&) const = default;
};

/// A collection agent's per-tick report: fresh demand samples for the VMs
/// it watches. `agent` identifies the collector, not a placement host —
/// the controller tracks staleness per VM and degrades whichever hosts
/// the stale VMs currently occupy.
struct HostTelemetryDeltaFrame {
  std::uint64_t tick = 0;
  std::uint64_t agent = 0;
  std::vector<VmSample> samples;

  bool operator==(const HostTelemetryDeltaFrame&) const = default;
};

struct VmArrivalFrame {
  std::uint64_t tick = 0;
  std::uint64_t vm = 0;
  std::string app;  ///< replica-group label; empty = nothing to spread
  /// Declared initial demand; seeds the demand envelope until telemetry
  /// takes over.
  double cpu_rpe2 = 0.0;
  double memory_mb = 0.0;

  bool operator==(const VmArrivalFrame&) const = default;
};

struct VmDepartureFrame {
  std::uint64_t tick = 0;
  std::uint64_t vm = 0;

  bool operator==(const VmDepartureFrame&) const = default;
};

enum class DecisionAction : std::uint8_t {
  kHold = 0,
  kAdmit = 1,
  kMigrate = 2,
};

enum class DecisionReason : std::uint8_t {
  kAdmitted = 0,          ///< admit: single-VM admission found a host
  kContention = 1,        ///< migrate: source host crossed its bound
  kUnderutilization = 2,  ///< migrate: source host drained entirely
  kNoCapacity = 3,        ///< hold: nowhere feasible to put/move the VM
  kStaleTelemetry = 4,    ///< hold: the VM's demand is stale; host degraded
};

const char* to_string(DecisionAction action) noexcept;
const char* to_string(DecisionReason reason) noexcept;

struct Decision {
  std::uint64_t vm = 0;
  DecisionAction action = DecisionAction::kHold;
  DecisionReason reason = DecisionReason::kNoCapacity;
  std::int32_t from = -1;  ///< current host (-1: not yet placed)
  std::int32_t to = -1;    ///< target host (-1: none)

  bool operator==(const Decision&) const = default;
};

/// The controller's output for one tick, in decision order: admissions
/// (arrival order), stale holds, repair migrations, capacity holds, drain
/// migrations. The order is part of the determinism contract — the
/// decision log is compared byte-for-byte across runs.
struct DecisionBatchFrame {
  std::uint64_t tick = 0;
  /// True when any resident VM's telemetry was stale this tick: its hosts
  /// were frozen and only holds were emitted for them.
  bool degraded = false;
  std::vector<Decision> decisions;

  bool operator==(const DecisionBatchFrame&) const = default;
};

/// Why the ingestion server refused a message (service/ingest). Typed so
/// a collector reacts by *kind* — resend-after-backoff for transient
/// codes, reconnect for framing loss, give up for session errors — never
/// by parsing a human string.
enum class RejectCode : std::uint8_t {
  kBadHello = 1,        ///< version/fleet-hash mismatch; session refused
  kNoHello = 2,         ///< data before the session's Hello
  kCorruptFrame = 3,    ///< checksum/decode failure; framing lost, conn drops
  kOversizedFrame = 4,  ///< length field exceeds the server's frame cap
  kOutOfOrder = 5,      ///< sequence gap; resend from the last Ack
  kShedding = 6,        ///< WAL stalled: heartbeat-only mode, retry later
  kUnexpectedFrame = 7, ///< a kind a collector must never send (decisions)
};

const char* to_string(RejectCode code) noexcept;

/// Is a reject transient (resend the same messages after backoff) as
/// opposed to a framing or session error (reconnect / give up)?
bool reject_is_transient(RejectCode code) noexcept;

/// Cumulative durability acknowledgement: every ingest message with
/// seq <= `seq` has been appended and fsync'd into the telemetry WAL. An
/// Ack is the *only* signal a collector may drop a buffered frame on.
struct AckFrame {
  std::uint64_t seq = 0;

  bool operator==(const AckFrame&) const = default;
};

/// Typed refusal of ingest message `seq` (0 when the message could not
/// even be framed). `detail` is for logs only; collectors dispatch on
/// `code`.
struct RejectFrame {
  std::uint64_t seq = 0;
  RejectCode code = RejectCode::kCorruptFrame;
  std::string detail;

  bool operator==(const RejectFrame&) const = default;
};

using Frame =
    std::variant<HelloFrame, HeartbeatFrame, FlushFrame, ShutdownFrame,
                 HostTelemetryDeltaFrame, VmArrivalFrame, VmDepartureFrame,
                 DecisionBatchFrame, AckFrame, RejectFrame>;

FrameKind frame_kind(const Frame& frame) noexcept;

/// Bytes of the frame header preceding every payload.
inline constexpr std::size_t kFrameHeaderSize = 1 + 8 + 8;

/// Serialize a frame (header + payload). Pure: equal frames encode to
/// equal bytes.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Append encode_frame(frame)'s bytes to `out`: many frames, one buffer.
void encode_frame_into(const Frame& frame, std::vector<std::uint8_t>& out);

struct DecodedFrame {
  Frame frame;
  std::size_t consumed = 0;  ///< total bytes, header included
};

/// Decode one frame from the front of [data, data+size). Throws
/// std::runtime_error on a short buffer, unknown kind, checksum mismatch,
/// or a payload payload_decodes() refuses — the caller treats any throw as
/// a torn or corrupt frame.
DecodedFrame decode_frame(const std::uint8_t* data, std::size_t size);

/// Does a `length`-byte payload of a frame of `kind` decode? The one
/// acceptance rule of the protocol: its length must be exactly what its
/// count and string-length words make it, every tag byte must name a known
/// value, and a DecisionBatch's `degraded` byte must be 0 or 1, so every
/// payload that decodes re-encodes to the same bytes. Reads only those
/// words and bytes and allocates nothing; false for an unknown kind.
bool payload_decodes(FrameKind kind, const std::uint8_t* payload,
                     std::size_t length) noexcept;

/// The payload half of decode_frame: build the frame from `length`
/// payload bytes of a frame of `kind` whose header and checksum the caller
/// has already checked. Throws exactly when payload_decodes() is false.
/// The WAL scan (service/telemetry_log) verifies a batch of checksums at
/// once, then builds each frame a restart keeps here and runs only
/// payload_decodes() on the others.
Frame decode_frame_payload(FrameKind kind, const std::uint8_t* payload,
                           std::size_t length);

}  // namespace vmcw::service
