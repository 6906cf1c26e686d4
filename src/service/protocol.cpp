#include "service/protocol.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/wire.h"

namespace vmcw::service {

namespace {

using wire::ByteReader;
using wire::ByteWriter;
using wire::fnv1a64;

void encode_payload(const HelloFrame& f, ByteWriter& w) {
  w.u32(f.version);
  w.u64(f.fleet_hash);
  w.str(f.peer);
}

void encode_payload(const HeartbeatFrame& f, ByteWriter& w) { w.u64(f.tick); }

void encode_payload(const FlushFrame& f, ByteWriter& w) { w.u64(f.tick); }

void encode_payload(const ShutdownFrame& f, ByteWriter& w) { w.u64(f.tick); }

void encode_payload(const HostTelemetryDeltaFrame& f, ByteWriter& w) {
  w.u64(f.tick);
  w.u64(f.agent);
  w.u64(f.samples.size());
  for (const VmSample& s : f.samples) {
    w.u64(s.vm);
    w.f64(s.cpu_rpe2);
    w.f64(s.memory_mb);
  }
}

void encode_payload(const VmArrivalFrame& f, ByteWriter& w) {
  w.u64(f.tick);
  w.u64(f.vm);
  w.str(f.app);
  w.f64(f.cpu_rpe2);
  w.f64(f.memory_mb);
}

void encode_payload(const VmDepartureFrame& f, ByteWriter& w) {
  w.u64(f.tick);
  w.u64(f.vm);
}

void encode_payload(const AckFrame& f, ByteWriter& w) { w.u64(f.seq); }

void encode_payload(const RejectFrame& f, ByteWriter& w) {
  w.u64(f.seq);
  w.u8(static_cast<std::uint8_t>(f.code));
  w.str(f.detail);
}

void encode_payload(const DecisionBatchFrame& f, ByteWriter& w) {
  w.u64(f.tick);
  w.u8(f.degraded ? 1 : 0);
  w.u64(f.decisions.size());
  for (const Decision& d : f.decisions) {
    w.u64(d.vm);
    w.u8(static_cast<std::uint8_t>(d.action));
    w.u8(static_cast<std::uint8_t>(d.reason));
    w.i32(d.from);
    w.i32(d.to);
  }
}

// ---- acceptance: the one rule for whether a payload decodes ----
//
// A payload decodes when its length is exactly what its count and
// string-length words make it, every tag byte names a known value, and a
// DecisionBatch's `degraded` byte is 0 or 1 — so a payload that decodes
// re-encodes to the same bytes. The checks read only those words and
// bytes, and a counted array is checked against the payload length before
// anything is reserved.

constexpr std::size_t kSampleBytes = 8 + 8 + 8;            // vm, cpu, memory
constexpr std::size_t kDecisionBytes = 8 + 1 + 1 + 4 + 4;  // vm, tags, from, to

/// `fixed` bytes plus one string whose length word sits at offset `at`.
bool string_fits(const std::uint8_t* p, std::size_t length, std::size_t at,
                 std::size_t fixed) noexcept {
  return length >= fixed && wire::load_u64(p + at) == length - fixed;
}

/// `fixed` bytes plus an array of `element`-byte entries whose count word
/// sits at offset `at`.
bool array_fits(const std::uint8_t* p, std::size_t length, std::size_t at,
                std::size_t fixed, std::size_t element) noexcept {
  return length >= fixed && (length - fixed) % element == 0 &&
         wire::load_u64(p + at) == (length - fixed) / element;
}

bool telemetry_decodes(const std::uint8_t* p, std::size_t length) noexcept {
  return array_fits(p, length, 16, 8 + 8 + 8, kSampleBytes);  // tick, agent, n
}

bool batch_decodes(const std::uint8_t* p, std::size_t length) noexcept {
  constexpr std::size_t kFixed = 8 + 1 + 8;  // tick, degraded, count
  if (!array_fits(p, length, 9, kFixed, kDecisionBytes) || p[8] > 1)
    return false;
  for (std::size_t at = kFixed; at < length; at += kDecisionBytes) {
    if (p[at + 8] > static_cast<std::uint8_t>(DecisionAction::kMigrate) ||
        p[at + 9] > static_cast<std::uint8_t>(DecisionReason::kStaleTelemetry))
      return false;
  }
  return true;
}

bool reject_decodes(const std::uint8_t* p, std::size_t length) noexcept {
  return string_fits(p, length, 9, 8 + 1 + 8) &&  // seq, code, detail length
         p[8] >= static_cast<std::uint8_t>(RejectCode::kBadHello) &&
         p[8] <= static_cast<std::uint8_t>(RejectCode::kUnexpectedFrame);
}

// ---- builders: run only on payloads payload_decodes accepted ----

HelloFrame decode_hello(ByteReader& r) {
  HelloFrame f;
  f.version = r.u32();
  f.fleet_hash = r.u64();
  f.peer = r.str();
  return f;
}

HostTelemetryDeltaFrame decode_telemetry(ByteReader& r) {
  HostTelemetryDeltaFrame f;
  f.tick = r.u64();
  f.agent = r.u64();
  const std::uint64_t n = r.u64();
  f.samples.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    VmSample s;
    s.vm = r.u64();
    s.cpu_rpe2 = r.f64();
    s.memory_mb = r.f64();
    f.samples.push_back(s);
  }
  return f;
}

VmArrivalFrame decode_arrival(ByteReader& r) {
  VmArrivalFrame f;
  f.tick = r.u64();
  f.vm = r.u64();
  f.app = r.str();
  f.cpu_rpe2 = r.f64();
  f.memory_mb = r.f64();
  return f;
}

VmDepartureFrame decode_departure(ByteReader& r) {
  VmDepartureFrame f;
  f.tick = r.u64();
  f.vm = r.u64();
  return f;
}

RejectFrame decode_reject(ByteReader& r) {
  RejectFrame f;
  f.seq = r.u64();
  f.code = static_cast<RejectCode>(r.u8());
  f.detail = r.str();
  return f;
}

DecisionBatchFrame decode_batch(ByteReader& r) {
  DecisionBatchFrame f;
  f.tick = r.u64();
  f.degraded = r.u8() != 0;
  const std::uint64_t n = r.u64();
  f.decisions.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Decision d;
    d.vm = r.u64();
    d.action = static_cast<DecisionAction>(r.u8());
    d.reason = static_cast<DecisionReason>(r.u8());
    d.from = r.i32();
    d.to = r.i32();
    f.decisions.push_back(d);
  }
  return f;
}

Frame decode_payload(FrameKind kind, ByteReader& r) {
  switch (kind) {
    case FrameKind::kHello:
      return decode_hello(r);
    case FrameKind::kHeartbeat:
      return HeartbeatFrame{r.u64()};
    case FrameKind::kFlush:
      return FlushFrame{r.u64()};
    case FrameKind::kShutdown:
      return ShutdownFrame{r.u64()};
    case FrameKind::kHostTelemetryDelta:
      return decode_telemetry(r);
    case FrameKind::kVmArrival:
      return decode_arrival(r);
    case FrameKind::kVmDeparture:
      return decode_departure(r);
    case FrameKind::kDecisionBatch:
      return decode_batch(r);
    case FrameKind::kAck:
      return AckFrame{r.u64()};
    case FrameKind::kReject:
      return decode_reject(r);
  }
  throw std::runtime_error("protocol: unknown frame kind");
}

}  // namespace

const char* to_string(FrameKind kind) noexcept {
  switch (kind) {
    case FrameKind::kHello:
      return "hello";
    case FrameKind::kHeartbeat:
      return "heartbeat";
    case FrameKind::kFlush:
      return "flush";
    case FrameKind::kShutdown:
      return "shutdown";
    case FrameKind::kHostTelemetryDelta:
      return "host-telemetry-delta";
    case FrameKind::kVmArrival:
      return "vm-arrival";
    case FrameKind::kVmDeparture:
      return "vm-departure";
    case FrameKind::kDecisionBatch:
      return "decision-batch";
    case FrameKind::kAck:
      return "ack";
    case FrameKind::kReject:
      return "reject";
  }
  return "?";
}

const char* to_string(RejectCode code) noexcept {
  switch (code) {
    case RejectCode::kBadHello:
      return "bad-hello";
    case RejectCode::kNoHello:
      return "no-hello";
    case RejectCode::kCorruptFrame:
      return "corrupt-frame";
    case RejectCode::kOversizedFrame:
      return "oversized-frame";
    case RejectCode::kOutOfOrder:
      return "out-of-order";
    case RejectCode::kShedding:
      return "shedding";
    case RejectCode::kUnexpectedFrame:
      return "unexpected-frame";
  }
  return "?";
}

bool reject_is_transient(RejectCode code) noexcept {
  return code == RejectCode::kShedding || code == RejectCode::kOutOfOrder;
}

const char* to_string(DecisionAction action) noexcept {
  switch (action) {
    case DecisionAction::kHold:
      return "hold";
    case DecisionAction::kAdmit:
      return "admit";
    case DecisionAction::kMigrate:
      return "migrate";
  }
  return "?";
}

const char* to_string(DecisionReason reason) noexcept {
  switch (reason) {
    case DecisionReason::kAdmitted:
      return "admitted";
    case DecisionReason::kContention:
      return "contention";
    case DecisionReason::kUnderutilization:
      return "underutilization";
    case DecisionReason::kNoCapacity:
      return "no-capacity";
    case DecisionReason::kStaleTelemetry:
      return "stale-telemetry";
  }
  return "?";
}

FrameKind frame_kind(const Frame& frame) noexcept {
  return std::visit(
      [](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, HelloFrame>) return FrameKind::kHello;
        if constexpr (std::is_same_v<T, HeartbeatFrame>)
          return FrameKind::kHeartbeat;
        if constexpr (std::is_same_v<T, FlushFrame>) return FrameKind::kFlush;
        if constexpr (std::is_same_v<T, ShutdownFrame>)
          return FrameKind::kShutdown;
        if constexpr (std::is_same_v<T, HostTelemetryDeltaFrame>)
          return FrameKind::kHostTelemetryDelta;
        if constexpr (std::is_same_v<T, VmArrivalFrame>)
          return FrameKind::kVmArrival;
        if constexpr (std::is_same_v<T, VmDepartureFrame>)
          return FrameKind::kVmDeparture;
        if constexpr (std::is_same_v<T, DecisionBatchFrame>)
          return FrameKind::kDecisionBatch;
        if constexpr (std::is_same_v<T, AckFrame>) return FrameKind::kAck;
        if constexpr (std::is_same_v<T, RejectFrame>)
          return FrameKind::kReject;
      },
      frame);
}

void encode_frame_into(const Frame& frame, std::vector<std::uint8_t>& out) {
  // The header goes in first with zero length and checksum words, the
  // payload is written straight behind it, then both words are filled in.
  const std::size_t start = out.size();
  ByteWriter w(std::move(out));
  w.u8(static_cast<std::uint8_t>(frame_kind(frame)));
  w.u64(0);
  w.u64(0);
  std::visit([&](const auto& f) { encode_payload(f, w); }, frame);
  out = std::move(w).take();
  std::uint8_t* header = out.data() + start;
  const std::size_t length = out.size() - start - kFrameHeaderSize;
  wire::store_u64(header + 1, length);
  wire::store_u64(header + 9, fnv1a64(header + kFrameHeaderSize, length));
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  encode_frame_into(frame, out);
  return out;
}

DecodedFrame decode_frame(const std::uint8_t* data, std::size_t size) {
  if (size < kFrameHeaderSize)
    throw std::runtime_error("protocol: short frame header");
  const std::uint8_t raw_kind = data[0];
  if (raw_kind < static_cast<std::uint8_t>(FrameKind::kHello) ||
      raw_kind > static_cast<std::uint8_t>(FrameKind::kReject))
    throw std::runtime_error("protocol: unknown frame kind");
  const std::uint64_t length = wire::load_u64(data + 1);
  const std::uint64_t checksum = wire::load_u64(data + 9);
  if (size - kFrameHeaderSize < length)
    throw std::runtime_error("protocol: torn frame");
  const std::uint8_t* body = data + kFrameHeaderSize;
  if (fnv1a64(body, length) != checksum)
    throw std::runtime_error("protocol: frame checksum mismatch");
  return {decode_frame_payload(static_cast<FrameKind>(raw_kind), body,
                               static_cast<std::size_t>(length)),
          kFrameHeaderSize + static_cast<std::size_t>(length)};
}

bool payload_decodes(FrameKind kind, const std::uint8_t* payload,
                     std::size_t length) noexcept {
  switch (kind) {
    case FrameKind::kHello:  // version, fleet hash, peer length
      return string_fits(payload, length, 12, 4 + 8 + 8);
    case FrameKind::kHeartbeat:
    case FrameKind::kFlush:
    case FrameKind::kShutdown:
    case FrameKind::kAck:
      return length == 8;
    case FrameKind::kHostTelemetryDelta:
      return telemetry_decodes(payload, length);
    case FrameKind::kVmArrival:  // tick, vm, app length, cpu, memory
      return string_fits(payload, length, 16, 8 + 8 + 8 + 8 + 8);
    case FrameKind::kVmDeparture:
      return length == 16;
    case FrameKind::kDecisionBatch:
      return batch_decodes(payload, length);
    case FrameKind::kReject:
      return reject_decodes(payload, length);
  }
  return false;
}

Frame decode_frame_payload(FrameKind kind, const std::uint8_t* payload,
                           std::size_t length) {
  if (!payload_decodes(kind, payload, length))
    throw std::runtime_error(std::string("protocol: malformed ") +
                             to_string(kind) + " payload");
  ByteReader reader(payload, length);
  return decode_payload(kind, reader);
}

}  // namespace vmcw::service
