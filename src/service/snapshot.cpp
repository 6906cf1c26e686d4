#include "service/snapshot.h"

#include <cstring>
#include <stdexcept>

#include "runtime/record_log.h"
#include "runtime/telemetry.h"
#include "runtime/wire.h"

namespace vmcw::service {
namespace {

constexpr char kMagic[8] = {'V', 'M', 'C', 'W', 'S', 'N', 'P', '1'};
constexpr std::uint32_t kVersion = 1;
/// magic + version + fleet hash + payload length + payload checksum.
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8 + 8;

std::vector<std::uint8_t> encode_payload(const SnapshotData& data) {
  wire::ByteWriter w;
  w.u64(data.frames_covered);
  w.u64(data.batches_emitted);
  w.u64(data.shutdowns_covered);
  w.u64(data.controller_state.size());
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.insert(bytes.end(), data.controller_state.begin(),
               data.controller_state.end());
  wire::ByteWriter marks;
  marks.u64(data.ack_marks.size());
  for (const auto& [peer, seq] : data.ack_marks) {
    marks.str(peer);
    marks.u64(seq);
  }
  bytes.insert(bytes.end(), marks.bytes().begin(), marks.bytes().end());
  return bytes;
}

bool decode_payload(const std::uint8_t* data, std::size_t size,
                    SnapshotData& out) {
  try {
    wire::ByteReader r(data, size);
    out.frames_covered = r.u64();
    out.batches_emitted = r.u64();
    out.shutdowns_covered = r.u64();
    const std::uint64_t state_len = r.u64();
    if (state_len > size) return false;
    out.controller_state.resize(state_len);
    for (std::size_t i = 0; i < state_len; ++i) out.controller_state[i] = r.u8();
    const std::uint64_t n_marks = r.u64();
    if (n_marks > size) return false;
    out.ack_marks.clear();
    std::string last_peer;
    for (std::uint64_t i = 0; i < n_marks; ++i) {
      std::string peer = r.str();
      const std::uint64_t seq = r.u64();
      // Writers emit marks in map order; enforce it so a snapshot's byte
      // image is canonical (duplicate or shuffled peers mean corruption).
      if (i > 0 && peer <= last_peer) return false;
      last_peer = peer;
      out.ack_marks.emplace(std::move(peer), seq);
    }
    return r.exhausted();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

bool write_snapshot(const std::string& path, std::uint64_t fleet_hash,
                    const SnapshotData& data) {
  const std::vector<std::uint8_t> payload = encode_payload(data);

  wire::ByteWriter header;
  for (const char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kVersion);
  header.u64(fleet_hash);
  header.u64(payload.size());
  header.u64(wire::fnv1a64(payload.data(), payload.size()));

  std::string bytes(header.bytes().begin(), header.bytes().end());
  bytes.append(payload.begin(), payload.end());
  return write_file_atomic(path, bytes, /*durable=*/true);
}

const char* to_string(SnapshotStatus status) noexcept {
  switch (status) {
    case SnapshotStatus::kOk:
      return "ok";
    case SnapshotStatus::kMissing:
      return "missing";
    case SnapshotStatus::kCorrupt:
      return "corrupt";
    case SnapshotStatus::kStaleFleet:
      return "stale fleet configuration";
  }
  return "unknown";
}

SnapshotStatus read_snapshot(const std::string& path, std::uint64_t fleet_hash,
                             SnapshotData& out) {
  std::vector<std::uint8_t> bytes;
  if (!read_file(path, bytes)) return SnapshotStatus::kMissing;
  if (bytes.size() < kHeaderSize) return SnapshotStatus::kCorrupt;

  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return SnapshotStatus::kCorrupt;
  if (wire::load_u32(bytes.data() + 8) != kVersion)
    return SnapshotStatus::kCorrupt;
  const std::uint64_t file_fleet = wire::load_u64(bytes.data() + 12);
  const std::uint64_t length = wire::load_u64(bytes.data() + 20);
  const std::uint64_t checksum = wire::load_u64(bytes.data() + 28);
  if (bytes.size() - kHeaderSize != length) return SnapshotStatus::kCorrupt;
  if (wire::fnv1a64(bytes.data() + kHeaderSize, length) != checksum)
    return SnapshotStatus::kCorrupt;
  // Fleet mismatch is only reportable once the bytes themselves check out:
  // a corrupt header must not masquerade as "wrong fleet".
  if (file_fleet != fleet_hash) return SnapshotStatus::kStaleFleet;
  if (!decode_payload(bytes.data() + kHeaderSize, length, out))
    return SnapshotStatus::kCorrupt;
  return SnapshotStatus::kOk;
}

}  // namespace vmcw::service
