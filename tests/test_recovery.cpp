// Bounded-time crash recovery: controller snapshots (atomic, checksummed,
// fleet-bound), WAL segment rotation with post-snapshot retention, the
// daemon's snapshot + WAL-suffix resume path (byte-identical to a cold
// full-WAL replay at any thread count), the batched single-fsync writer,
// the supervisor's restart/backoff/circuit-breaker policy, the
// deterministic SIGKILL schedule the chaos soak runs on, and the
// socket-level crash/restart and coalescing contracts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "service/io_fault_hooks.h"
#include "chaos/io_faults.h"
#include "chaos/process_faults.h"
#include "hardware/catalog.h"
#include "runtime/bounded_queue.h"
#include "runtime/thread_pool.h"
#include "runtime/wire.h"
#include "service/churn.h"
#include "service/collector.h"
#include "service/controller.h"
#include "service/daemon.h"
#include "service/ingest.h"
#include "service/snapshot.h"
#include "service/supervisor.h"
#include "service/telemetry_log.h"

namespace vmcw::service {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::vector<Frame> small_churn() {
  ChurnOptions churn;
  churn.agents = 4;
  churn.initial_vms = 24;
  churn.ticks = 8;
  churn.arrivals_per_tick = 1.5;
  churn.departure_prob = 0.05;
  churn.blackout_prob = 0.0;
  churn.mean_host_fraction = 0.3;
  churn.seed = 11;
  return generate_churn(churn, ControllerConfig{});
}

std::uint64_t fleet_hash() { return fleet_config_hash(ControllerConfig{}); }

/// Daemon options for the bounded-recovery tests: small segments and a
/// tight snapshot cadence so a short stream exercises rotation,
/// checkpointing and reclamation.
Daemon::Options bounded_options(const std::string& dir, bool resume,
                                bool retain) {
  Daemon::Options o;
  o.wal_path = dir + "/live.wal";
  o.decisions_path = dir + "/live.decisions";
  o.resume = resume;
  o.durable = true;
  o.segment_frames = 8;
  o.snapshot_path = dir + "/ctrl.snap";
  o.snapshot_every_frames = 16;
  o.retain_segments = retain;
  return o;
}

/// Feed frames [begin, end) through an open daemon, checkpointing on the
/// configured cadence after each apply (a direct-feed "batch" of one).
void feed(Daemon& daemon, const std::vector<Frame>& frames, std::size_t begin,
          std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    daemon.ingest(frames[i]);
    daemon.maybe_snapshot();
  }
}

/// Decision log of an uninterrupted direct-feed run over `frames`.
std::string reference_decisions(const std::string& dir,
                                const std::vector<Frame>& frames) {
  Daemon::Options o;
  o.wal_path = dir + "/ref.wal";
  o.decisions_path = dir + "/ref.decisions";
  Daemon daemon(ControllerConfig{}, o);
  daemon.open();
  for (const Frame& frame : frames) daemon.ingest(frame);
  daemon.close();
  return file_bytes(o.decisions_path);
}

// ------------------------------------------------------- snapshot format

SnapshotData sample_snapshot() {
  SnapshotData data;
  data.frames_covered = 42;
  data.batches_emitted = 7;
  data.shutdowns_covered = 3;
  data.controller_state = {1, 2, 3, 4, 5};
  data.ack_marks = {{"collector-0", 17}, {"collector-1", 9}};
  return data;
}

TEST(Snapshot, WriteReadRoundTrip) {
  const std::string dir = temp_dir("vmcw_rec_snap");
  const std::string path = dir + "/ctrl.snap";
  const SnapshotData data = sample_snapshot();
  ASSERT_TRUE(write_snapshot(path, 0xabcd, data));

  SnapshotData back;
  EXPECT_EQ(read_snapshot(path, 0xabcd, back), SnapshotStatus::kOk);
  EXPECT_EQ(back.frames_covered, data.frames_covered);
  EXPECT_EQ(back.batches_emitted, data.batches_emitted);
  EXPECT_EQ(back.shutdowns_covered, data.shutdowns_covered);
  EXPECT_EQ(back.controller_state, data.controller_state);
  EXPECT_EQ(back.ack_marks, data.ack_marks);

  // The write is atomic rename: no .tmp litter survives success.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(Snapshot, RewriteReplacesAtomically) {
  const std::string dir = temp_dir("vmcw_rec_snap2");
  const std::string path = dir + "/ctrl.snap";
  SnapshotData data = sample_snapshot();
  ASSERT_TRUE(write_snapshot(path, 0xabcd, data));
  data.frames_covered = 100;
  data.ack_marks["collector-2"] = 50;
  ASSERT_TRUE(write_snapshot(path, 0xabcd, data));

  SnapshotData back;
  EXPECT_EQ(read_snapshot(path, 0xabcd, back), SnapshotStatus::kOk);
  EXPECT_EQ(back.frames_covered, 100u);
  EXPECT_EQ(back.ack_marks.size(), 3u);
}

TEST(Snapshot, MissingCorruptAndStaleAreDistinguished) {
  const std::string dir = temp_dir("vmcw_rec_snapbad");
  const std::string path = dir + "/ctrl.snap";
  SnapshotData out;
  EXPECT_EQ(read_snapshot(path, 0xabcd, out), SnapshotStatus::kMissing);

  ASSERT_TRUE(write_snapshot(path, 0xabcd, sample_snapshot()));
  // Valid file, wrong fleet: stale, not corrupt.
  EXPECT_EQ(read_snapshot(path, 0xdcba, out), SnapshotStatus::kStaleFleet);

  // Flip a payload byte: the checksum catches it.
  {
    std::string bytes = file_bytes(path);
    bytes[bytes.size() - 1] = static_cast<char>(bytes.back() ^ 0x40);
    std::ofstream(path, std::ios::binary) << bytes;
  }
  EXPECT_EQ(read_snapshot(path, 0xabcd, out), SnapshotStatus::kCorrupt);
  // A corrupt file must not masquerade as merely stale either.
  EXPECT_EQ(read_snapshot(path, 0xdcba, out), SnapshotStatus::kCorrupt);

  // Truncation: corrupt, not a crash.
  ASSERT_TRUE(write_snapshot(path, 0xabcd, sample_snapshot()));
  {
    const std::string bytes = file_bytes(path);
    std::ofstream(path, std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_EQ(read_snapshot(path, 0xabcd, out), SnapshotStatus::kCorrupt);

  // Garbage magic: corrupt.
  std::ofstream(path, std::ios::binary) << "not a snapshot at all";
  EXPECT_EQ(read_snapshot(path, 0xabcd, out), SnapshotStatus::kCorrupt);
}

// ------------------------------------------------ controller state bytes

TEST(ControllerState, SaveRestoreSaveIsByteStable) {
  const std::string dir = temp_dir("vmcw_rec_ctrlstate");
  const auto frames = small_churn();

  Daemon::Options o;
  o.wal_path = dir + "/state.wal";
  o.decisions_path = dir + "/state.decisions";
  Daemon daemon(ControllerConfig{}, o);
  daemon.open();
  for (const Frame& frame : frames) daemon.ingest(frame);

  wire::ByteWriter first;
  daemon.controller().save_state(first);
  ASSERT_FALSE(first.bytes().empty());

  IncrementalController restored(ControllerConfig{});
  wire::ByteReader r(first.bytes().data(), first.bytes().size());
  restored.restore_state(r);
  wire::ByteWriter second;
  restored.save_state(second);
  EXPECT_EQ(first.bytes(), second.bytes());
  daemon.close();
}

TEST(ControllerState, RestoreRejectsTruncatedBytes) {
  IncrementalController controller(ControllerConfig{});
  wire::ByteWriter w;
  controller.save_state(w);
  const auto& bytes = w.bytes();
  for (const std::size_t cut : {std::size_t{0}, bytes.size() / 2}) {
    IncrementalController victim(ControllerConfig{});
    wire::ByteReader r(bytes.data(), cut);
    if (cut == 0) continue;  // an empty record is trivially short
    EXPECT_THROW(victim.restore_state(r), std::runtime_error);
  }
  // Trailing junk is malformed too: a snapshot payload is exact.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  IncrementalController victim(ControllerConfig{});
  wire::ByteReader r(padded.data(), padded.size());
  EXPECT_THROW(victim.restore_state(r), std::runtime_error);
}

TEST(ControllerState, StateBytesFollowResidentsNotUptime) {
  // Steady churn: ~200 residents, a tenth of them replaced every tick. By
  // tick 4N the controller has seen four times as many VMs as at tick N,
  // but holds about as many; its saved state must not grow with the rest.
  ChurnOptions churn;
  churn.agents = 4;
  churn.initial_vms = 200;
  churn.ticks = 160;
  churn.arrivals_per_tick = 20.0;
  churn.departure_prob = 0.1;
  churn.mean_host_fraction = 0.1;
  churn.seed = 3;
  IncrementalController controller{ControllerConfig{}};
  std::map<std::uint64_t, std::size_t> state_size;  // tick -> bytes
  for (const Frame& frame : generate_churn(churn, ControllerConfig{})) {
    const auto* flush = std::get_if<FlushFrame>(&frame);
    if (flush == nullptr) {
      controller.apply(frame);
      continue;
    }
    controller.tick(flush->tick);
    if (flush->tick == churn.ticks / 4 || flush->tick == churn.ticks) {
      wire::ByteWriter w;
      controller.save_state(w);
      state_size[flush->tick] = w.bytes().size();
    }
  }
  ASSERT_EQ(state_size.size(), 2u);
  const double growth = static_cast<double>(state_size[churn.ticks]) /
                        static_cast<double>(state_size[churn.ticks / 4]);
  EXPECT_LE(growth, 1.25) << state_size[churn.ticks / 4] << " bytes at tick "
                          << churn.ticks / 4 << ", "
                          << state_size[churn.ticks] << " at tick "
                          << churn.ticks;
}

/// save_state's layout, decoded field by field, so a test can forge a
/// well-formed state that the live controller cannot reach.
struct StateImage {
  struct Slot {
    std::uint64_t id = 0;
    std::string app;
    std::uint8_t resident = 0;
    std::uint8_t admitted = 0;
    std::uint64_t last_seen = 0;
    std::uint64_t cursor = 0;
    std::vector<std::pair<double, double>> samples;
  };
  std::vector<Slot> slots;
  std::vector<std::int32_t> hosts;
  std::vector<std::size_t> pending;
  std::uint8_t degraded = 0;

  static StateImage decode(const std::vector<std::uint8_t>& bytes) {
    wire::ByteReader r(bytes.data(), bytes.size());
    StateImage image;
    image.slots.resize(r.u64());
    for (Slot& slot : image.slots) {
      slot.id = r.u64();
      slot.app = r.str();
      slot.resident = r.u8();
      slot.admitted = r.u8();
      slot.last_seen = r.u64();
      slot.cursor = r.u64();
      slot.samples.resize(r.u64());
      for (auto& [cpu, mem] : slot.samples) {
        cpu = r.f64();
        mem = r.f64();
      }
    }
    image.hosts.resize(r.u64());
    for (std::int32_t& host : image.hosts) host = r.i32();
    image.pending = r.vec_u64();
    image.degraded = r.u8();
    EXPECT_TRUE(r.exhausted());
    return image;
  }

  std::vector<std::uint8_t> encode() const {
    wire::ByteWriter w;
    w.u64(slots.size());
    for (const Slot& slot : slots) {
      w.u64(slot.id);
      w.str(slot.app);
      w.u8(slot.resident);
      w.u8(slot.admitted);
      w.u64(slot.last_seen);
      w.u64(slot.cursor);
      w.u64(slot.samples.size());
      for (const auto& [cpu, mem] : slot.samples) {
        w.f64(cpu);
        w.f64(mem);
      }
    }
    w.u64(hosts.size());
    for (const std::int32_t host : hosts) w.i32(host);
    w.vec_u64(pending);
    w.u8(degraded);
    return w.bytes();
  }

  /// First slot matching `pred`; fails the test when there is none.
  template <typename Pred>
  std::size_t find(Pred pred) const {
    for (std::size_t i = 0; i < slots.size(); ++i)
      if (pred(slots[i], hosts[i])) return i;
    ADD_FAILURE() << "no slot of the wanted shape";
    return 0;
  }
};

/// A live controller state holding every slot shape: admitted residents
/// with full rings, arrivals still queued, and a departed slot the next
/// tick would drop. It is cut right after a departure in tick 16.
std::vector<std::uint8_t> live_state_of_every_shape() {
  ChurnOptions churn;
  churn.agents = 4;
  churn.initial_vms = 40;
  churn.ticks = 20;
  churn.arrivals_per_tick = 4.0;
  churn.departure_prob = 0.05;
  churn.mean_host_fraction = 0.3;
  churn.seed = 7;
  IncrementalController controller{ControllerConfig{}};
  for (const Frame& frame : generate_churn(churn, ControllerConfig{})) {
    if (const auto* flush = std::get_if<FlushFrame>(&frame)) {
      controller.tick(flush->tick);
      continue;
    }
    controller.apply(frame);
    const auto* departure = std::get_if<VmDepartureFrame>(&frame);
    if (departure != nullptr && departure->tick >= 16) break;
  }
  wire::ByteWriter w;
  controller.save_state(w);
  return w.bytes();
}

/// Restoring `image` into a controller over `config` throws, and leaves
/// the controller empty.
void expect_rejected(const StateImage& image, const char* what,
                     const ControllerConfig& config = ControllerConfig{}) {
  SCOPED_TRACE(what);
  const std::vector<std::uint8_t> bytes = image.encode();
  IncrementalController victim{config};
  wire::ByteReader r(bytes.data(), bytes.size());
  EXPECT_THROW(victim.restore_state(r), std::runtime_error);
  EXPECT_EQ(victim.resident_vms(), 0u);
  wire::ByteWriter after;
  victim.save_state(after);
  wire::ByteWriter empty;
  IncrementalController{config}.save_state(empty);
  EXPECT_EQ(after.bytes(), empty.bytes());
}

const std::size_t kWindow = ControllerConfig{}.envelope_window;

TEST(ControllerState, EveryShapeOfTheLiveStateRestores) {
  const std::vector<std::uint8_t> bytes = live_state_of_every_shape();
  const StateImage image = StateImage::decode(bytes);
  EXPECT_EQ(image.encode(), bytes);
  image.find([](const auto& s, std::int32_t host) {
    return s.admitted && host >= 0 && s.samples.size() == kWindow;
  });
  image.find([](const auto& s, std::int32_t) {
    return s.resident && !s.admitted && s.samples.size() < kWindow;
  });
  image.find([](const auto& s, std::int32_t) { return !s.resident; });
  IncrementalController restored{ControllerConfig{}};
  wire::ByteReader r(bytes.data(), bytes.size());
  restored.restore_state(r);
  wire::ByteWriter again;
  restored.save_state(again);
  EXPECT_EQ(again.bytes(), bytes);
}

TEST(ControllerState, RestoreRejectsARingCursorOffItsFillCount) {
  const StateImage live = StateImage::decode(live_state_of_every_shape());
  const std::size_t full = live.find([](const auto& s, std::int32_t) {
    return s.samples.size() == kWindow;
  });
  const std::size_t filling = live.find([](const auto& s, std::int32_t) {
    return s.resident && s.samples.size() < kWindow;
  });
  {
    // A full ring's cursor past its end: the next sample would land one
    // past the ring.
    StateImage image = live;
    image.slots[full].cursor = kWindow;
    expect_rejected(image, "full ring, cursor at the window");
  }
  {
    StateImage image = live;
    image.slots[filling].cursor = image.slots[filling].samples.size() - 1;
    expect_rejected(image, "filling ring, cursor behind its fill");
  }
  {
    StateImage image = live;
    image.slots[filling].samples.clear();
    image.slots[filling].cursor = 0;
    expect_rejected(image, "empty ring");
  }
}

TEST(ControllerState, RestoreRejectsAHostOutsideThePool) {
  const StateImage live = StateImage::decode(live_state_of_every_shape());
  const std::size_t placed = live.find(
      [](const auto& s, std::int32_t host) { return s.admitted && host >= 0; });
  {
    StateImage image = live;
    image.hosts[placed] = -2;
    expect_rejected(image, "host index below -1");
  }
  // Against a bounded pool just large enough for the live state, one
  // host past its end is refused.
  const std::int32_t highest =
      *std::max_element(live.hosts.begin(), live.hosts.end());
  ControllerConfig bounded;
  bounded.pool = HostPool(
      {HostClass{hs23_elite_blade(), static_cast<std::size_t>(highest) + 1}});
  {
    const std::vector<std::uint8_t> bytes = live.encode();
    IncrementalController fits{bounded};
    wire::ByteReader r(bytes.data(), bytes.size());
    EXPECT_NO_THROW(fits.restore_state(r));
  }
  StateImage image = live;
  image.hosts[placed] = highest + 1;
  expect_rejected(image, "host past a bounded pool", bounded);
}

TEST(ControllerState, RestoreRejectsAdmissionThatDisagreesWithTheHostMap) {
  const StateImage live = StateImage::decode(live_state_of_every_shape());
  const std::size_t placed = live.find(
      [](const auto& s, std::int32_t host) { return s.admitted && host >= 0; });
  const std::size_t departed =
      live.find([](const auto& s, std::int32_t) { return !s.resident; });
  {
    StateImage image = live;
    image.slots[placed].admitted = 0;
    expect_rejected(image, "placed but not admitted");
  }
  {
    StateImage image = live;
    image.hosts[placed] = -1;
    expect_rejected(image, "admitted but unplaced");
  }
  {
    StateImage image = live;
    image.slots[departed].admitted = 1;
    image.hosts[departed] = 0;
    expect_rejected(image, "departed slot holding a host");
  }
}

TEST(ControllerState, RestoreRejectsAQueueOtherThanTheUnadmittedResidents) {
  const StateImage live = StateImage::decode(live_state_of_every_shape());
  ASSERT_FALSE(live.pending.empty());
  const std::size_t placed = live.find(
      [](const auto& s, std::int32_t host) { return s.admitted && host >= 0; });
  const std::size_t departed =
      live.find([](const auto& s, std::int32_t) { return !s.resident; });
  {
    StateImage image = live;
    image.pending.push_back(image.pending.back());
    expect_rejected(image, "an entry twice");
  }
  {
    StateImage image = live;
    image.pending.push_back(placed);
    std::sort(image.pending.begin(), image.pending.end());
    expect_rejected(image, "an admitted entry");
  }
  {
    StateImage image = live;
    image.pending.push_back(departed);
    std::sort(image.pending.begin(), image.pending.end());
    expect_rejected(image, "a departed entry");
  }
  {
    StateImage image = live;
    image.pending.pop_back();
    expect_rejected(image, "an unadmitted resident left out");
  }
  {
    StateImage image = live;
    image.pending.push_back(image.slots.size());
    expect_rejected(image, "an entry past the slots");
  }
}

TEST(ControllerState, RestoreRejectsASlotAfterAResidentSlotOfItsId) {
  const StateImage live = StateImage::decode(live_state_of_every_shape());
  const std::size_t departed =
      live.find([](const auto& s, std::int32_t) { return !s.resident; });
  const std::size_t first = live.find([](const auto& s, std::int32_t) {
    return s.resident != 0;
  });
  std::size_t later = live.slots.size();
  for (std::size_t i = live.slots.size(); i-- > 0;)
    if (live.slots[i].resident && i != first) later = i;
  ASSERT_LT(later, live.slots.size());
  {
    StateImage image = live;
    image.slots[later].id = image.slots[first].id;
    expect_rejected(image, "two resident slots of one id");
  }
  // A departed slot may precede a resident slot of its id (the VM came
  // back), but no slot may follow a resident one.
  std::size_t resident_after = live.slots.size();
  for (std::size_t i = departed + 1; i < live.slots.size(); ++i)
    if (live.slots[i].resident) {
      resident_after = i;
      break;
    }
  ASSERT_LT(resident_after, live.slots.size());
  {
    StateImage image = live;
    image.slots[departed].id = image.slots[resident_after].id;
    const std::vector<std::uint8_t> bytes = image.encode();
    IncrementalController restored{ControllerConfig{}};
    wire::ByteReader r(bytes.data(), bytes.size());
    EXPECT_NO_THROW(restored.restore_state(r));
  }
  const std::size_t resident_before = live.find(
      [](const auto& s, std::int32_t) { return s.resident != 0; });
  ASSERT_LT(resident_before, departed);
  StateImage image = live;
  image.slots[departed].id = image.slots[resident_before].id;
  expect_rejected(image, "a departed slot after a resident slot of its id");
}

// ------------------------------------------------------ segment rotation

TEST(SegmentedLog, RotatesSealsAndStitchesBackTogether) {
  const std::string dir = temp_dir("vmcw_rec_seg");
  const std::string path = dir + "/seg.wal";
  const auto frames = small_churn();

  SegmentedFrameLog log;
  log.open(path, fleet_hash(), /*resume=*/false, /*segment_frames=*/8);
  for (const Frame& frame : frames) log.append(frame, /*sync=*/false);
  log.sync();
  log.close();

  // No single file at the root path; a chain of .segNNNNNN files instead.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(segment_path(path, 1)));
  EXPECT_GE(fs::file_size(segment_path(path, 1)), 28u);

  const WalContents wal = read_segmented_wal(path);
  EXPECT_EQ(wal.version, 2u);
  EXPECT_EQ(wal.base_ordinal, 0u);
  EXPECT_FALSE(wal.torn_tail);
  EXPECT_EQ(wal.frames, frames);

  // Resume recovers the identical stream and keeps appending in place.
  SegmentedFrameLog again;
  const auto rec = again.open(path, fleet_hash(), /*resume=*/true, 8);
  EXPECT_FALSE(rec.stale);
  EXPECT_FALSE(rec.torn_tail);
  EXPECT_EQ(rec.base_ordinal, 0u);
  EXPECT_EQ(rec.frames, frames);
  EXPECT_EQ(again.next_ordinal(), frames.size());
  again.close();
}

TEST(SegmentedLog, ZeroSegmentFramesIsByteCompatibleLegacyMode) {
  const std::string dir = temp_dir("vmcw_rec_seglegacy");
  const std::string path = dir + "/legacy.wal";
  const auto frames = small_churn();

  SegmentedFrameLog log;
  log.open(path, fleet_hash(), false, /*segment_frames=*/0);
  for (const Frame& frame : frames) log.append(frame, /*sync=*/false);
  log.sync();
  log.close();

  // One plain version-1 file, readable by the original reader.
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(segment_path(path, 1)));
  const WalContents direct = read_frame_log(path);
  EXPECT_EQ(direct.version, 1u);
  EXPECT_EQ(direct.frames, frames);
  EXPECT_EQ(read_segmented_wal(path).frames, frames);
}

TEST(SegmentedLog, TornTailInActiveSegmentIsTruncatedAway) {
  const std::string dir = temp_dir("vmcw_rec_segtorn");
  const std::string path = dir + "/torn.wal";
  const auto frames = small_churn();
  const std::size_t n = 20;  // seg1(8) seg2(8) seg3(4 active)

  SegmentedFrameLog log;
  log.open(path, fleet_hash(), false, 8);
  for (std::size_t i = 0; i < n; ++i) log.append(frames[i], false);
  log.sync();
  log.close();

  // Garbage lands on the active segment's tail (a crash mid-append).
  {
    std::ofstream out(segment_path(path, 3),
                      std::ios::binary | std::ios::app);
    out << "torn torn torn";
  }
  SegmentedFrameLog again;
  const auto rec = again.open(path, fleet_hash(), true, 8);
  EXPECT_TRUE(rec.torn_tail);
  EXPECT_EQ(rec.frames,
            std::vector<Frame>(frames.begin(), frames.begin() + n));
  EXPECT_EQ(again.next_ordinal(), n);
  again.close();
}

TEST(SegmentedLog, CrashExactlyAtASealLeavesTheChainWhole) {
  const std::string dir = temp_dir("vmcw_rec_segseal");
  const std::string path = dir + "/seal.wal";
  const auto frames = small_churn();

  SegmentedFrameLog log;
  log.open(path, fleet_hash(), false, 8);
  for (std::size_t i = 0; i < 18; ++i) log.append(frames[i], false);
  log.sync();
  log.close();

  // Simulate dying mid-rotation: the freshly created segment 3 got only a
  // partial header onto disk.
  fs::resize_file(segment_path(path, 3), 10);

  SegmentedFrameLog again;
  const auto rec = again.open(path, fleet_hash(), true, 8);
  // The partial file is unlinked; every sealed frame survives.
  EXPECT_EQ(rec.frames,
            std::vector<Frame>(frames.begin(), frames.begin() + 16));
  EXPECT_FALSE(fs::exists(segment_path(path, 3)));
  EXPECT_EQ(again.next_ordinal(), 16u);

  // Appending resumes seamlessly: the next append re-seals and rotates.
  for (std::size_t i = 16; i < frames.size(); ++i)
    again.append(frames[i], false);
  again.sync();
  again.close();
  EXPECT_EQ(read_segmented_wal(path).frames, frames);
}

TEST(SegmentedLog, TornSealedSegmentEndsTheChainThere) {
  const std::string dir = temp_dir("vmcw_rec_segmid");
  const std::string path = dir + "/mid.wal";
  const auto frames = small_churn();

  SegmentedFrameLog log;
  log.open(path, fleet_hash(), false, 8);
  for (std::size_t i = 0; i < 20; ++i) log.append(frames[i], false);
  log.sync();
  log.close();

  // Chop the tail off sealed segment 2: its last frame is now torn, and
  // nothing after an invalid seal is trustworthy.
  fs::resize_file(segment_path(path, 2),
                  fs::file_size(segment_path(path, 2)) - 5);

  SegmentedFrameLog again;
  const auto rec = again.open(path, fleet_hash(), true, 8);
  EXPECT_TRUE(rec.torn_tail);
  EXPECT_EQ(rec.frames.size(), 15u);  // 8 + 7: seg2 lost its final frame
  EXPECT_EQ(rec.frames, std::vector<Frame>(frames.begin(),
                                           frames.begin() + 15));
  EXPECT_FALSE(fs::exists(segment_path(path, 3)));  // unlinked
  again.close();
}

TEST(SegmentedLog, MissingMiddleSegmentTruncatesTheChain) {
  const std::string dir = temp_dir("vmcw_rec_seggap");
  const std::string path = dir + "/gap.wal";
  const auto frames = small_churn();

  SegmentedFrameLog log;
  log.open(path, fleet_hash(), false, 8);
  for (std::size_t i = 0; i < 20; ++i) log.append(frames[i], false);
  log.sync();
  log.close();

  fs::remove(segment_path(path, 2));

  SegmentedFrameLog again;
  const auto rec = again.open(path, fleet_hash(), true, 8);
  EXPECT_EQ(rec.frames,
            std::vector<Frame>(frames.begin(), frames.begin() + 8));
  EXPECT_FALSE(fs::exists(segment_path(path, 3)));  // beyond the gap
  again.close();
}

TEST(SegmentedLog, ReclaimBeforeUnlinksOnlyWhollyCoveredSealedSegments) {
  const std::string dir = temp_dir("vmcw_rec_segreclaim");
  const std::string path = dir + "/reclaim.wal";
  const auto frames = small_churn();

  SegmentedFrameLog log;
  log.open(path, fleet_hash(), false, 4);
  for (std::size_t i = 0; i < 10; ++i) log.append(frames[i], false);
  log.sync();

  // Segments: 1 covers [0,4), 2 covers [4,8), active 3 holds [8,10).
  EXPECT_EQ(log.reclaim_before(7), 1u);  // only segment 1 is wholly below
  EXPECT_FALSE(fs::exists(segment_path(path, 1)));
  EXPECT_TRUE(fs::exists(segment_path(path, 2)));
  EXPECT_EQ(log.reclaim_before(8), 1u);  // now segment 2 too
  EXPECT_EQ(log.reclaim_before(10), 0u);  // the active segment never goes
  EXPECT_TRUE(fs::exists(segment_path(path, 3)));
  log.close();

  // The surviving chain reads back with the reclaimed prefix as its base.
  const WalContents wal = read_segmented_wal(path);
  EXPECT_EQ(wal.base_ordinal, 8u);
  EXPECT_EQ(wal.frames,
            std::vector<Frame>(frames.begin() + 8, frames.begin() + 10));

  // A cold replay of a reclaimed chain must refuse, not silently skip.
  EXPECT_THROW(replay_wal(path, dir + "/never.decisions", ControllerConfig{},
                          /*resume=*/false),
               std::runtime_error);
}

// ------------------------------------------------------ on-disk pins

/// Thirteen fixed frames of every WAL-able kind: a pure function of `i`,
/// so the byte pins below depend on the log format and nothing else.
std::vector<Frame> pin_frames() {
  std::vector<Frame> frames;
  frames.push_back(HelloFrame{kProtocolVersion, 0x5eed, "pin-peer"});
  for (std::uint64_t i = 0; i < 12; ++i) {
    switch (i % 6) {
      case 0:
        frames.push_back(VmArrivalFrame{i, 100 + i, "app", 1.5 * i, 512.0});
        break;
      case 1:
        frames.push_back(HostTelemetryDeltaFrame{
            i, i % 3, {{100, 0.25 * i, 256.0}, {101, 0.5, 128.0 + i}}});
        break;
      case 2:
        frames.push_back(HeartbeatFrame{i});
        break;
      case 3:
        frames.push_back(DecisionBatchFrame{
            i,
            i % 2 == 1,
            {{100, DecisionAction::kAdmit, DecisionReason::kAdmitted, -1, 2},
             {101, DecisionAction::kHold, DecisionReason::kNoCapacity, 3, -1}}});
        break;
      case 4:
        frames.push_back(VmDepartureFrame{i, 100 + i / 2});
        break;
      default:
        frames.push_back(FlushFrame{i});
        break;
    }
  }
  return frames;
}

std::uint64_t file_hash(const std::string& path) {
  const std::string bytes = file_bytes(path);
  return wire::fnv1a64(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                       bytes.size());
}

TEST(OnDiskPins, FrameLogFileBytes) {
  const std::string dir = temp_dir("vmcw_rec_pin_framelog");
  const std::string path = dir + "/pin.wal";
  FrameLog log;
  log.open(path, 0x0123456789abcdefULL, /*resume=*/false);
  for (const Frame& frame : pin_frames()) log.append(frame, /*sync=*/false);
  log.sync();
  log.close();
  EXPECT_EQ(fs::file_size(path), 669u);
  EXPECT_EQ(file_hash(path), 0xb23b442c0de2be6bULL);
}

TEST(OnDiskPins, SegmentedChainBytesAcrossRotationAndResume) {
  const std::string dir = temp_dir("vmcw_rec_pin_chain");
  const std::string path = dir + "/pin.wal";
  const auto frames = pin_frames();
  {
    SegmentedFrameLog log;
    log.open(path, 0x0123456789abcdefULL, /*resume=*/false,
             /*segment_frames=*/3);
    for (std::size_t i = 0; i < 10; ++i) log.append(frames[i], false);
    log.sync();
    log.close();
  }
  {
    SegmentedFrameLog log;
    const auto rec = log.open(path, 0x0123456789abcdefULL, /*resume=*/true, 3);
    ASSERT_EQ(rec.frame_count, 10u);
    for (std::size_t i = 10; i < frames.size(); ++i)
      log.append(frames[i], false);
    log.sync();
    log.close();
  }
  const std::uint64_t pins[] = {0x264e846ec6382569ULL,
                                0x01b09a67f016b493ULL,
                                0x6857defeca4a52f3ULL,
                                0xf3c7b55760cbf0e3ULL,
                                0x37f7cf108c635284ULL};
  for (std::size_t i = 0; i < std::size(pins); ++i) {
    SCOPED_TRACE(i + 1);
    EXPECT_EQ(file_hash(segment_path(path, i + 1)), pins[i]);
  }
  EXPECT_FALSE(fs::exists(segment_path(path, std::size(pins) + 1)));
}

// -------------------------------------------- daemon snapshot recovery

TEST(Recovery, SnapshotPlusSuffixMatchesColdReplayAtAnyThreadCount) {
  const std::string dir = temp_dir("vmcw_rec_threads");
  // Several hundred departures, so both the live run and every resume
  // compact departed slots many times (and snapshots land between a
  // departure and the tick that drops it).
  ChurnOptions churn;
  churn.agents = 4;
  churn.initial_vms = 60;
  churn.ticks = 128;
  churn.arrivals_per_tick = 3.0;
  churn.departure_prob = 0.05;
  churn.mean_host_fraction = 0.3;
  churn.seed = 11;
  const auto frames = generate_churn(churn, ControllerConfig{});
  std::size_t departures = 0;
  for (const Frame& frame : frames)
    departures += std::holds_alternative<VmDepartureFrame>(frame);
  EXPECT_GE(departures, 300u);
  const std::size_t cut = frames.size() * 2 / 3;

  // Reference: uninterrupted run over the whole stream.
  const std::string ref = reference_decisions(dir, frames);
  ASSERT_FALSE(ref.empty());

  // Phase 1: live run up to the cut, snapshots on, full chain retained so
  // the cold replay below still has frame zero.
  {
    Daemon daemon(ControllerConfig{}, bounded_options(dir, false, true));
    daemon.open();
    feed(daemon, frames, 0, cut);
    daemon.close();
    EXPECT_GT(daemon.stats().snapshots_written, 0u);
    EXPECT_EQ(daemon.stats().segments_reclaimed, 0u);
  }

  // Phase 2, three times from identical disk images: resume under 1, 2
  // and 8 worker threads must produce byte-identical decision logs.
  std::vector<std::string> decisions;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::string copy =
        dir + "/resume_t" + std::to_string(threads);
    fs::create_directories(copy);
    for (const auto& entry : fs::directory_iterator(dir))
      if (entry.is_regular_file())
        fs::copy_file(entry.path(),
                      fs::path(copy) / entry.path().filename());

    ThreadPool pool(threads);
    ScopedPoolOverride scope(pool);
    Daemon daemon(ControllerConfig{}, bounded_options(copy, true, true));
    const auto opened = daemon.open();
    EXPECT_TRUE(opened.snapshot_loaded);
    EXPECT_GE(opened.snapshot_frames, 16u);
    // Bounded recovery: only the suffix past the snapshot was re-applied.
    EXPECT_EQ(opened.frames_recovered, cut - opened.snapshot_frames);
    feed(daemon, frames, cut, frames.size());
    daemon.close();
    decisions.push_back(file_bytes(copy + "/live.decisions"));
    EXPECT_EQ(decisions.back(), ref)
        << "snapshot recovery diverged at " << threads << " threads";

    // ...and the cold full-WAL replay of the finished chain agrees too.
    const std::string replayed = copy + "/cold.decisions";
    replay_wal(copy + "/live.wal", replayed, ControllerConfig{},
               /*resume=*/false, /*durable=*/false);
    EXPECT_EQ(file_bytes(replayed), ref)
        << "cold replay diverged at " << threads << " threads";
  }
  EXPECT_EQ(decisions[0], decisions[1]);
  EXPECT_EQ(decisions[0], decisions[2]);
}

TEST(Recovery, ReclamationBoundsTheChainAndRecoveryStillMatches) {
  const std::string dir = temp_dir("vmcw_rec_reclaim");
  const auto frames = small_churn();
  const std::size_t cut = frames.size() * 2 / 3;
  const std::string ref = reference_decisions(dir, frames);

  DaemonStats phase1;
  {
    Daemon daemon(ControllerConfig{}, bounded_options(dir, false, false));
    daemon.open();
    feed(daemon, frames, 0, cut);
    daemon.close();
    phase1 = daemon.stats();
  }
  EXPECT_GT(phase1.snapshots_written, 0u);
  EXPECT_GT(phase1.segments_reclaimed, 0u);

  // The head is gone: a cold replay refuses...
  EXPECT_GT(read_segmented_wal(dir + "/live.wal").base_ordinal, 0u);
  EXPECT_THROW(replay_wal(dir + "/live.wal", dir + "/cold.decisions",
                          ControllerConfig{}, false),
               std::runtime_error);

  // ...but snapshot recovery bridges the reclaimed prefix and the finished
  // run is still byte-identical to the uninterrupted reference.
  Daemon daemon(ControllerConfig{}, bounded_options(dir, true, false));
  const auto opened = daemon.open();
  EXPECT_TRUE(opened.snapshot_loaded);
  feed(daemon, frames, cut, frames.size());
  daemon.close();
  EXPECT_EQ(file_bytes(dir + "/live.decisions"), ref);
}

TEST(Recovery, ReclaimedHeadWithoutUsableSnapshotRefuses) {
  const std::string dir = temp_dir("vmcw_rec_nosnap");
  const auto frames = small_churn();
  {
    Daemon daemon(ControllerConfig{}, bounded_options(dir, false, false));
    daemon.open();
    feed(daemon, frames, 0, frames.size() * 2 / 3);
    daemon.close();
    ASSERT_GT(daemon.stats().segments_reclaimed, 0u);
  }
  // The snapshot vanishes (disk swap, fat-fingered rm): resuming must
  // refuse loudly instead of replaying a beheaded chain as if complete.
  fs::remove(dir + "/ctrl.snap");
  Daemon daemon(ControllerConfig{}, bounded_options(dir, true, false));
  EXPECT_THROW(daemon.open(), std::runtime_error);
}

TEST(Recovery, StaleFleetSnapshotFallsBackToFullReplay) {
  const std::string dir = temp_dir("vmcw_rec_stalesnap");
  const auto frames = small_churn();
  const std::size_t cut = frames.size() * 2 / 3;
  {
    Daemon daemon(ControllerConfig{}, bounded_options(dir, false, true));
    daemon.open();
    feed(daemon, frames, 0, cut);
    daemon.close();
  }
  // Overwrite the snapshot with one from a different fleet configuration.
  SnapshotData foreign = sample_snapshot();
  foreign.frames_covered = 16;
  ASSERT_TRUE(write_snapshot(dir + "/ctrl.snap", fleet_hash() ^ 0x5a5a,
                             foreign));

  Daemon daemon(ControllerConfig{}, bounded_options(dir, true, true));
  const auto opened = daemon.open();
  EXPECT_FALSE(opened.snapshot_loaded);
  EXPECT_EQ(opened.frames_recovered, cut);  // full replay
  daemon.close();
}

TEST(Recovery, UnreachableSnapshotStateFallsBackToFullReplay) {
  // Checksum-valid snapshots whose controller state the live controller
  // cannot reach are refused by restore_state, and the daemon's full
  // replay then decides exactly as an uninterrupted run.
  const std::string dir = temp_dir("vmcw_rec_unreachable");
  const auto frames = small_churn();
  const std::size_t cut = frames.size() * 2 / 3;
  const std::string ref = reference_decisions(dir, frames);
  ASSERT_FALSE(ref.empty());
  {
    Daemon daemon(ControllerConfig{}, bounded_options(dir, false, true));
    daemon.open();
    feed(daemon, frames, 0, cut);
    daemon.close();
    ASSERT_GT(daemon.stats().snapshots_written, 0u);
  }
  SnapshotData snap;
  ASSERT_EQ(read_snapshot(dir + "/ctrl.snap", fleet_hash(), snap),
            SnapshotStatus::kOk);
  const StateImage live = StateImage::decode(snap.controller_state);
  const std::size_t placed = live.find(
      [](const auto& s, std::int32_t host) { return s.admitted && host >= 0; });

  std::vector<std::pair<const char*, StateImage>> forgeries;
  {
    // The ring full and its cursor at the window: the next sample would
    // be written one past the ring.
    StateImage image = live;
    auto& slot = image.slots[placed];
    slot.samples.resize(kWindow, slot.samples.front());
    slot.cursor = kWindow;
    forgeries.emplace_back("cursor_at_window", image);
  }
  {
    StateImage image = live;
    image.hosts[placed] = -2;
    forgeries.emplace_back("host_below_unplaced", image);
  }
  for (const auto& [name, image] : forgeries) {
    SCOPED_TRACE(name);
    const std::string copy = dir + "/" + name;
    fs::create_directories(copy);
    for (const auto& entry : fs::directory_iterator(dir))
      if (entry.is_regular_file())
        fs::copy_file(entry.path(), fs::path(copy) / entry.path().filename());
    SnapshotData forged = snap;
    forged.controller_state = image.encode();
    ASSERT_TRUE(write_snapshot(copy + "/ctrl.snap", fleet_hash(), forged));

    Daemon daemon(ControllerConfig{}, bounded_options(copy, true, true));
    const auto opened = daemon.open();
    EXPECT_FALSE(opened.snapshot_loaded);
    EXPECT_EQ(opened.frames_recovered, cut);  // full replay
    feed(daemon, frames, cut, frames.size());
    daemon.close();
    EXPECT_EQ(file_bytes(copy + "/live.decisions"), ref);
  }
}

TEST(Recovery, SnapshotPastTheSurvivingChainIsRefused) {
  const std::string dir = temp_dir("vmcw_rec_snapgap");
  const auto frames = small_churn();
  const std::size_t cut = 60 < frames.size() ? 60 : frames.size();
  {
    Daemon daemon(ControllerConfig{}, bounded_options(dir, false, true));
    daemon.open();
    feed(daemon, frames, 0, cut);
    daemon.close();
    ASSERT_GT(daemon.stats().snapshots_written, 1u);
  }
  // Losing a middle segment truncates the chain below what the snapshot
  // covers; the snapshot references frames that no longer exist, so it is
  // refused and the surviving prefix replays cold.
  fs::remove(segment_path(dir + "/live.wal", 2));
  Daemon daemon(ControllerConfig{}, bounded_options(dir, true, true));
  const auto opened = daemon.open();
  EXPECT_FALSE(opened.snapshot_loaded);
  EXPECT_EQ(opened.frames_recovered, 8u);  // segment 1 only
  daemon.close();
}

TEST(Recovery, FreshOpenRemovesTheStreamsOldSnapshot) {
  const std::string dir = temp_dir("vmcw_rec_freshsnap");
  const auto frames = small_churn();
  {
    Daemon daemon(ControllerConfig{}, bounded_options(dir, false, true));
    daemon.open();
    feed(daemon, frames, 0, frames.size() * 2 / 3);
    daemon.close();
  }
  ASSERT_TRUE(fs::exists(dir + "/ctrl.snap"));
  // A non-resume open starts a new stream; the old stream's snapshot must
  // not survive to be mistaken for a checkpoint of the new one.
  Daemon daemon(ControllerConfig{}, bounded_options(dir, false, true));
  daemon.open();
  EXPECT_FALSE(fs::exists(dir + "/ctrl.snap"));
  daemon.close();
}

// ------------------------------------- chain-validation equivalence pins

// Damaged-chain resumes with every expectation recorded once and frozen:
// which segment files survive, what open() reports, and the decision log
// the resumed daemon finishes with. A change to how restart reads the
// chain (how it checksums, parses or stores frames) must leave all of
// them alone. The live run cuts 8-frame segments and snapshots every 20
// frames, so the last snapshot's boundary falls inside a sealed segment,
// below it lie whole sealed segments, and above it sits the active one.

constexpr std::uint64_t kPinSegmentFrames = 8;
constexpr std::size_t kPinCut = 150;

Daemon::Options pin_options(const std::string& dir, bool resume) {
  Daemon::Options o;
  o.wal_path = dir + "/live.wal";
  o.decisions_path = dir + "/live.decisions";
  o.resume = resume;
  o.durable = false;
  o.segment_frames = kPinSegmentFrames;
  o.snapshot_path = dir + "/ctrl.snap";
  o.snapshot_every_frames = 20;
  o.retain_segments = true;
  return o;
}

std::vector<Frame> pin_stream() {
  ChurnOptions churn;
  churn.agents = 4;
  churn.initial_vms = 24;
  churn.ticks = 24;
  churn.arrivals_per_tick = 2.0;
  churn.departure_prob = 0.05;
  churn.blackout_prob = 0.0;
  churn.mean_host_fraction = 0.3;
  churn.seed = 17;
  return generate_churn(churn, ControllerConfig{});
}

std::size_t segment_of(std::uint64_t ordinal) {
  return static_cast<std::size_t>(ordinal / kPinSegmentFrames) + 1;
}

void xor_byte(const std::string& path, std::size_t offset, std::uint8_t mask) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  const auto byte = static_cast<std::uint8_t>(f.get());
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(byte ^ mask));
}

void flip_middle_bit(const std::string& path) {
  xor_byte(path, static_cast<std::size_t>(fs::file_size(path) / 2), 0x10);
}

/// Raise the sample-count word of the first telemetry delta in segment
/// file `path` by one and rewrite the frame's checksum to match: the
/// record stays checksum-intact, but its payload no longer decodes.
void raise_first_sample_count(const std::string& path) {
  std::string bytes = file_bytes(path);
  auto* data = reinterpret_cast<std::uint8_t*>(bytes.data());
  constexpr std::size_t kSegmentHeader = 8 + 4 + 8 + 8;
  for (std::size_t at = kSegmentHeader;
       at + kFrameHeaderSize <= bytes.size();) {
    const auto length = static_cast<std::size_t>(wire::load_u64(data + at + 1));
    std::uint8_t* payload = data + at + kFrameHeaderSize;
    if (data[at] == static_cast<std::uint8_t>(FrameKind::kHostTelemetryDelta)) {
      wire::store_u64(payload + 16, wire::load_u64(payload + 16) + 1);
      wire::store_u64(data + at + 9, wire::fnv1a64(payload, length));
      std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
      return;
    }
    at += kFrameHeaderSize + length;
  }
  FAIL() << "no telemetry delta in " << path;
}

/// Surviving chain files: how many, and the highest index with its size.
std::string chain_files(const std::string& wal) {
  std::size_t count = 0;
  std::string last = "none";
  for (std::size_t i = 1; i <= 64; ++i) {
    const std::string seg = segment_path(wal, i);
    if (!fs::exists(seg)) continue;
    ++count;
    last = std::to_string(i) + ":" + std::to_string(fs::file_size(seg));
  }
  return std::to_string(count) + " files, last " + last;
}

TEST(ChainValidation, DamagedChainResumesMatchTheirPins) {
  const std::string dir = temp_dir("vmcw_rec_chainpins");
  const auto frames = pin_stream();
  ASSERT_GT(frames.size(), kPinCut + 20);
  const std::string base = dir + "/base";
  fs::create_directories(base);
  {
    Daemon daemon(ControllerConfig{}, pin_options(base, false));
    daemon.open();
    feed(daemon, frames, 0, kPinCut);
    daemon.close();
  }
  SnapshotData snap;
  ASSERT_EQ(read_snapshot(base + "/ctrl.snap", fleet_hash(), snap),
            SnapshotStatus::kOk);
  const std::size_t boundary = segment_of(snap.frames_covered);
  const std::size_t active = segment_of(kPinCut - 1);
  ASSERT_EQ(snap.frames_covered, 140u);
  ASSERT_EQ(boundary, 18u);  // holds [136, 144): the boundary is inside
  ASSERT_EQ(active, 19u);

  const auto seg = [](const std::string& d, std::size_t i) {
    return segment_path(d + "/live.wal", i);
  };
  struct Case {
    const char* name;
    std::function<void(const std::string&)> damage;
    const char* files;
    bool snapshot_loaded;
    std::size_t frames_recovered;
    std::size_t batches_recovered;
    bool wal_stale;
    std::size_t wal_frames;
    std::uint64_t decisions;
  };
  const Case cases[] = {
      {"intact", [](const std::string&) {}, "19 files, last 19:908", true, 10,
       13, false, 10, 0x75f5f1a78c383c77ULL},
      {"flip_below_snapshot",
       [&](const std::string& d) { flip_middle_bit(seg(d, 5)); },
       "5 files, last 5:337", false, 35, 13, false, 35, 0x1016492181cd34a3ULL},
      {"flip_boundary_segment",
       [&](const std::string& d) { flip_middle_bit(seg(d, boundary)); },
       "18 files, last 18:380", false, 139, 13, false, 139,
       0x2f9b9d7e2dbaf5ccULL},
      {"flip_active_segment",
       [&](const std::string& d) { flip_middle_bit(seg(d, active)); },
       "19 files, last 19:442", true, 8, 13, false, 8, 0x75f5f1a78c383c77ULL},
      {"truncated_sealed_segment",
       [&](const std::string& d) {
         fs::resize_file(seg(d, 10), fs::file_size(seg(d, 10)) - 5);
       },
       "10 files, last 10:976", false, 79, 13, false, 79,
       0x12b10fc967ea134fULL},
      {"base_ordinal_gap",
       [&](const std::string& d) { xor_byte(seg(d, 12), 20, 0x01); },
       "11 files, last 11:964", false, 88, 13, false, 88,
       0x761b694c35d445faULL},
      {"foreign_fleet_later_segment",
       [&](const std::string& d) { xor_byte(seg(d, 12), 12, 0x5a); },
       "11 files, last 11:964", false, 88, 13, false, 88,
       0x761b694c35d445faULL},
      {"snapshot_past_chain_end",
       [&](const std::string& d) {
         fs::remove(seg(d, active));
         fs::remove(seg(d, boundary));
       },
       "17 files, last 17:1081", false, 136, 13, false, 136,
       0x4e79bc6a063fdb4eULL},
      {"snapshot_fails_restore",
       [&](const std::string& d) {
         SnapshotData bad = snap;
         bad.controller_state.resize(bad.controller_state.size() / 2);
         ASSERT_TRUE(write_snapshot(d + "/ctrl.snap", fleet_hash(), bad));
       },
       "19 files, last 19:908", false, 150, 13, false, 150,
       0x75f5f1a78c383c77ULL},
      // Checksum-intact but undecodable: a restart that only checksums
      // the frames below the snapshot would keep the whole chain.
      {"count_word_lie_below_snapshot",
       [&](const std::string& d) { raise_first_sample_count(seg(d, 7)); },
       "7 files, last 7:251", false, 53, 13, false, 53,
       0x909c96d4127676edULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string copy = dir + "/" + c.name;
    fs::create_directories(copy);
    for (const auto& entry : fs::directory_iterator(base))
      fs::copy_file(entry.path(), fs::path(copy) / entry.path().filename());
    c.damage(copy);

    Daemon daemon(ControllerConfig{}, pin_options(copy, true));
    const Daemon::OpenResult opened = daemon.open();
    EXPECT_EQ(chain_files(copy + "/live.wal"), c.files);
    EXPECT_EQ(opened.snapshot_loaded, c.snapshot_loaded);
    EXPECT_EQ(opened.frames_recovered, c.frames_recovered);
    EXPECT_EQ(opened.batches_recovered, c.batches_recovered);
    EXPECT_EQ(opened.wal_stale, c.wal_stale);
    EXPECT_EQ(opened.wal_frames.size(), c.wal_frames);
    feed(daemon, frames, kPinCut, frames.size());
    daemon.close();
    const std::string log = file_bytes(copy + "/live.decisions");
    EXPECT_EQ(wire::fnv1a64(reinterpret_cast<const std::uint8_t*>(log.data()),
                            log.size()),
              c.decisions);
  }
}

// --------------------------------------------------- batched WAL writes

/// Hooks that count write and fdatasync calls (and pass them through).
class CountingSyncHooks : public WalIoHooks {
 public:
  long write_some(int fd, const std::uint8_t* data,
                  std::size_t size) override {
    ++writes_;
    return WalIoHooks::write_some(fd, data, size);
  }
  int sync(int fd) override {
    ++syncs_;
    return WalIoHooks::sync(fd);
  }
  std::uint64_t writes() const noexcept { return writes_; }
  std::uint64_t syncs() const noexcept { return syncs_; }

 private:
  std::uint64_t writes_ = 0;
  std::uint64_t syncs_ = 0;
};

TEST(Recovery, AppendManyIssuesOneSyncForTheWholeBatch) {
  const std::string dir = temp_dir("vmcw_rec_batchsync");
  const auto frames = small_churn();
  EncodedRun batch;
  for (std::size_t i = 0; i < 10; ++i) batch.add(frames[i]);

  Daemon::Options o;
  o.wal_path = dir + "/batch.wal";
  o.decisions_path = dir + "/batch.decisions";
  CountingSyncHooks hooks;
  Daemon daemon(ControllerConfig{}, o);
  daemon.set_io_hooks(&hooks);
  daemon.open();

  // Ten frames, one write and one fdatasync: a fall-back to per-frame
  // writes fails here.
  const std::uint64_t writes = hooks.writes();
  const std::uint64_t before = hooks.syncs();
  EXPECT_TRUE(daemon.append_many(batch));
  EXPECT_EQ(hooks.writes() - writes, 1u);
  EXPECT_EQ(hooks.syncs() - before, 1u);

  // The per-frame path costs one sync per frame; that is the difference
  // the writer batching buys.
  const std::uint64_t single = hooks.syncs();
  daemon.ingest(frames[10]);
  daemon.ingest(frames[11]);
  EXPECT_GE(hooks.syncs() - single, 2u);
  daemon.close();

  // The batch's records are the frames, in order.
  const WalContents wal = read_frame_log(o.wal_path);
  EXPECT_EQ(wal.frames,
            std::vector<Frame>(frames.begin(), frames.begin() + 12));
}

TEST(BoundedQueueDrain, MovesUpToMaxInArrivalOrder) {
  BoundedQueue<int> q(8);
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(q.push(i));

  std::vector<int> out;
  EXPECT_EQ(q.drain(out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.drain(out, 10), 2u);  // takes what is there
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(q.drain(out, 10), 0u);  // empty: returns immediately
  EXPECT_EQ(out.size(), 5u);
}

// ------------------------------------------------------ supervisor policy

TEST(SupervisorPolicy, BackoffDoublesToCapAndProgressResets) {
  SupervisorOptions o;
  o.backoff_base_seconds = 0.05;
  o.backoff_cap_seconds = 0.4;
  o.storm_restarts = 0;  // breaker off for this test
  SupervisorPolicy policy(o);

  EXPECT_DOUBLE_EQ(policy.on_exit(0.0).value(), 0.05);
  EXPECT_DOUBLE_EQ(policy.on_exit(1.0).value(), 0.10);
  EXPECT_DOUBLE_EQ(policy.on_exit(2.0).value(), 0.20);
  EXPECT_DOUBLE_EQ(policy.on_exit(3.0).value(), 0.40);
  EXPECT_DOUBLE_EQ(policy.on_exit(4.0).value(), 0.40);  // capped
  EXPECT_EQ(policy.consecutive_failures(), 5u);

  policy.on_progress(5.0);  // the daemon did real work
  EXPECT_EQ(policy.consecutive_failures(), 0u);
  EXPECT_DOUBLE_EQ(policy.on_exit(6.0).value(), 0.05);  // schedule restarts
  EXPECT_EQ(policy.exits(), 6u);
}

TEST(SupervisorPolicy, RestartStormOpensTheCircuitBreaker) {
  SupervisorOptions o;
  o.storm_restarts = 3;
  o.storm_window_seconds = 10.0;
  SupervisorPolicy policy(o);

  EXPECT_TRUE(policy.on_exit(0.0).has_value());
  EXPECT_TRUE(policy.on_exit(1.0).has_value());
  EXPECT_FALSE(policy.on_exit(2.0).has_value());  // third inside the window
  EXPECT_TRUE(policy.circuit_open());
  EXPECT_FALSE(policy.on_exit(100.0).has_value());  // open stays open
}

TEST(SupervisorPolicy, SlowCrashesOutsideTheWindowNeverTrip) {
  SupervisorOptions o;
  o.storm_restarts = 3;
  o.storm_window_seconds = 10.0;
  SupervisorPolicy policy(o);
  for (double t = 0.0; t < 200.0; t += 20.0)
    EXPECT_TRUE(policy.on_exit(t).has_value()) << "at t=" << t;
  EXPECT_FALSE(policy.circuit_open());
}

TEST(SupervisorPolicy, HangDetectionKeysOnHeartbeatSilence) {
  SupervisorOptions o;
  o.hang_after_seconds = 5.0;
  const SupervisorPolicy policy(o);
  EXPECT_FALSE(policy.hung(8.0, 4.0));
  EXPECT_TRUE(policy.hung(9.0, 4.0));
  EXPECT_TRUE(policy.hung(100.0, 4.0));

  SupervisorOptions off;
  off.hang_after_seconds = 0.0;  // watchdog disabled
  const SupervisorPolicy lax(off);
  EXPECT_FALSE(lax.hung(1e9, 0.0));
}

// ----------------------------------------------------- process fault plan

TEST(ProcessFaultPlan, SameSeedSameKillSchedule) {
  ProcessFaultSpec spec;
  spec.kills = 5;
  spec.min_uptime_seconds = 0.2;
  spec.max_uptime_seconds = 1.0;
  const ProcessFaultPlan a = ProcessFaultPlan::generate(spec, 42);
  const ProcessFaultPlan b = ProcessFaultPlan::generate(spec, 42);
  const ProcessFaultPlan c = ProcessFaultPlan::generate(spec, 43);

  bool differs = false;
  for (std::size_t run = 0; run < 5; ++run) {
    EXPECT_DOUBLE_EQ(a.kill_after_seconds(run), b.kill_after_seconds(run));
    EXPECT_GE(a.kill_after_seconds(run), 0.2);
    EXPECT_LE(a.kill_after_seconds(run), 1.0);
    differs = differs ||
              a.kill_after_seconds(run) != c.kill_after_seconds(run);
  }
  EXPECT_TRUE(differs);
  // Runs past the kill budget live.
  EXPECT_LT(a.kill_after_seconds(5), 0.0);
  EXPECT_LT(a.kill_after_seconds(100), 0.0);
  EXPECT_EQ(a.kills(), 5u);
}

TEST(ProcessFaultPlan, ScriptedKillsOverrideAndEmptyPlanIsQuiet) {
  ProcessFaultPlan plan;  // no kills at all
  EXPECT_LT(plan.kill_after_seconds(0), 0.0);
  EXPECT_EQ(plan.kills(), 0u);

  plan.force_kill(2, 0.75);
  EXPECT_LT(plan.kill_after_seconds(1), 0.0);
  EXPECT_DOUBLE_EQ(plan.kill_after_seconds(2), 0.75);
  EXPECT_EQ(plan.kills(), 1u);

  ProcessFaultSpec spec;
  spec.kills = 2;
  ProcessFaultPlan hashed = ProcessFaultPlan::generate(spec, 7);
  hashed.force_kill(0, 0.1);  // scripted beats hashed for the same run
  EXPECT_DOUBLE_EQ(hashed.kill_after_seconds(0), 0.1);
  EXPECT_EQ(hashed.kills(), 2u);

  ProcessFaultSpec hostile;
  hostile.min_uptime_seconds = -3.0;
  hostile.max_uptime_seconds = -7.0;
  const ProcessFaultSpec sane = hostile.validated();
  EXPECT_GE(sane.min_uptime_seconds, 0.0);
  EXPECT_GE(sane.max_uptime_seconds, sane.min_uptime_seconds);
}

// ----------------------------------------- sockets: batching, coalescing,
// ----------------------------------------- crash/restart under recovery

struct ServeResult {
  IngestStats ingest;
  DaemonStats daemon;
  std::vector<CollectorStats> collectors;
};

/// One daemon + IngestServer + N in-process collectors, to completion.
ServeResult serve_churn(const std::string& dir,
                        const std::vector<Frame>& frames,
                        std::size_t collectors, std::size_t agents,
                        const IoFaultPlan* plan, IngestOptions options,
                        bool coalesce) {
  Daemon::Options daemon_options;
  daemon_options.wal_path = dir + "/live.wal";
  daemon_options.decisions_path = dir + "/live.decisions";
  daemon_options.durable = true;
  Daemon daemon(ControllerConfig{}, daemon_options);
  const auto opened = daemon.open();

  options.unix_path = dir + "/ingest.sock";
  options.expected_shutdowns = collectors;
  IngestServer server(daemon, options);
  server.start(opened.wal_frames);

  const auto parts = partition_stream(frames, collectors, agents);
  ServeResult result;
  result.collectors.resize(collectors);
  std::vector<std::thread> clients;
  clients.reserve(collectors);
  for (std::size_t i = 0; i < collectors; ++i) {
    clients.emplace_back([&, i] {
      CollectorOptions copts;
      copts.unix_path = options.unix_path;
      copts.peer = "collector-" + std::to_string(i);
      copts.fleet_hash = fleet_hash();
      copts.coalesce_telemetry = coalesce;
      std::optional<PlannedTransportFaults> faults;
      if (plan != nullptr && plan->any()) faults.emplace(*plan, i);
      CollectorClient client(copts, faults ? &*faults : nullptr);
      result.collectors[i] = client.run(parts[i]);
    });
  }
  for (auto& t : clients) t.join();
  server.wait();
  daemon.close();
  result.ingest = server.stats();
  result.daemon = daemon.stats();
  return result;
}

void expect_replay_identity(const std::string& dir) {
  const std::string live = file_bytes(dir + "/live.decisions");
  ASSERT_FALSE(live.empty());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::string replayed = dir + "/replay_t" + std::to_string(threads);
    ThreadPool pool(threads);
    ScopedPoolOverride scope(pool);
    replay_wal(dir + "/live.wal", replayed, ControllerConfig{},
               /*resume=*/false, /*durable=*/false);
    EXPECT_EQ(file_bytes(replayed), live) << "at " << threads << " threads";
  }
}

TEST(IngestBatching, BatchedWriterKeepsDeliveryAndReplayIdentity) {
  const std::string dir = temp_dir("vmcw_rec_batchserve");
  const auto frames = small_churn();
  IngestOptions options;
  options.max_batch_frames = 32;
  const auto result = serve_churn(dir, frames, /*collectors=*/3,
                                  /*agents=*/4, nullptr, options, false);

  std::size_t expected = 0;
  for (const auto& part : partition_stream(frames, 3, 4))
    expected += part.size();
  EXPECT_EQ(result.ingest.messages_ingested, expected);
  EXPECT_EQ(result.ingest.shutdowns_seen, 3u);
  // Batching happened: the writer drained in fewer fsyncs than messages.
  EXPECT_GE(result.ingest.wal_batches, 1u);
  EXPECT_LE(result.ingest.wal_batches, result.ingest.messages_ingested);
  expect_replay_identity(dir);
}

TEST(Coalescing, DisconnectedBacklogMergesSupersededTelemetry) {
  const std::string dir = temp_dir("vmcw_rec_coalesce");
  const auto frames = small_churn();

  IoFaultSpec spec;
  spec.disconnect_rate = 0.12;
  const IoFaultPlan plan = IoFaultPlan::generate(spec, 21);
  const auto result = serve_churn(dir, frames, /*collectors=*/2,
                                  /*agents=*/4, &plan, {}, /*coalesce=*/true);

  // Coalescing rewrites frames, never drops them: every partition message
  // still arrives, and the WAL the run produced still replays identically.
  std::size_t expected = 0;
  for (const auto& part : partition_stream(frames, 2, 4))
    expected += part.size();
  EXPECT_EQ(result.ingest.messages_ingested, expected);

  std::size_t coalesced = 0, reconnects = 0;
  for (const auto& stats : result.collectors) {
    coalesced += stats.samples_coalesced;
    reconnects += stats.reconnects;
  }
  EXPECT_GT(reconnects, 0u);
  EXPECT_GT(coalesced, 0u);
  expect_replay_identity(dir);
}

TEST(Recovery, DaemonCrashMidIngestRecoversAndFinishesIdentically) {
  const std::string dir = temp_dir("vmcw_rec_soak");
  const auto frames = small_churn();
  const auto stream = partition_stream(frames, 1, 4)[0];
  const std::string ref = reference_decisions(dir, stream);

  // Phase 1: a live daemon with snapshots + segments + reclamation, made
  // slow by an injected fsync stall so the "crash" lands mid-ingest.
  IoFaultPlan stall;
  stall.force_stall_window(0, 1u << 20, 0.02);
  StallingWalHooks hooks(stall);

  Daemon::Options opts = bounded_options(dir, false, false);
  opts.snapshot_every_frames = 8;
  Daemon d1(ControllerConfig{}, opts);
  d1.set_io_hooks(&hooks);
  const auto opened1 = d1.open();

  IngestOptions io1;
  io1.unix_path = dir + "/ingest.sock";
  io1.expected_shutdowns = 0;  // phase 1 ends by "crash", not Shutdown
  io1.max_batch_frames = 4;
  io1.shed_fsync_seconds = 1.0;  // the stall is load, not a disk death
  io1.recover_fsync_seconds = 0.5;
  io1.health_path = dir + "/health";
  IngestServer s1(d1, io1);
  s1.start(opened1.wal_frames);

  CollectorStats cstats;
  std::string collector_error;
  std::thread collector([&] {
    try {
      CollectorOptions copts;
      copts.unix_path = io1.unix_path;
      copts.peer = "collector-0";
      copts.fleet_hash = fleet_hash();
      CollectorClient client(copts);
      cstats = client.run(stream);
    } catch (const std::exception& e) {
      collector_error = e.what();
    }
  });

  while (s1.stats().messages_ingested < 24)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  s1.stop();  // SIGKILL stand-in: no drain courtesy beyond durability
  s1.wait();
  d1.close();
  EXPECT_GT(d1.stats().snapshots_written, 0u);
  EXPECT_GT(d1.stats().segments_reclaimed, 0u);
  EXPECT_TRUE(fs::exists(dir + "/health"));

  // Phase 2: resume from the snapshot; the same collector session is
  // still live and reconnects. If the post-restart Ack rewind were broken
  // this would livelock on OutOfOrder rejects until the collector's
  // max_attempts throw surfaced below.
  Daemon::Options opts2 = bounded_options(dir, true, false);
  opts2.snapshot_every_frames = 8;
  Daemon d2(ControllerConfig{}, opts2);
  const auto opened2 = d2.open();
  EXPECT_TRUE(opened2.snapshot_loaded);
  EXPECT_GE(opened2.snapshot_frames, 8u);

  IngestOptions io2 = io1;
  io2.expected_shutdowns = 0;  // the collector's return drives shutdown
  IngestServer s2(d2, io2);
  s2.start(opened2.wal_frames, opened2.ack_marks);
  collector.join();
  EXPECT_EQ(collector_error, "");
  s2.stop();
  s2.wait();
  d2.close();

  // Exactly one Shutdown in the stream, landing in whichever phase the
  // crash left it to.
  EXPECT_EQ(s1.stats().shutdowns_seen + s2.stats().shutdowns_seen, 1u);
  // The reclaimed-head chain is no longer cold-replayable; the decision
  // log is the identity check, and it matches the uninterrupted run.
  EXPECT_EQ(file_bytes(dir + "/live.decisions"), ref);
}

// A kill that lands after every collector delivered its Shutdown leaves a
// stream whose quota is already durable. The collectors were acked and
// exited — nothing will ever resend — so the restarted daemon must count
// the recovered Shutdowns and end its serve run with zero traffic, or a
// supervisor would hang-kill it in a loop forever.
TEST(Recovery, RestartAfterCompletedIngestExitsWithoutTraffic) {
  const std::string dir = temp_dir("vmcw_rec_done");
  const auto frames = small_churn();
  const std::size_t collectors = 2;

  Daemon::Options opts = bounded_options(dir, false, false);
  Daemon d1(ControllerConfig{}, opts);
  const auto opened1 = d1.open();
  IngestOptions io;
  io.unix_path = dir + "/ingest.sock";
  io.expected_shutdowns = collectors;
  IngestServer s1(d1, io);
  s1.start(opened1.wal_frames);

  const auto parts = partition_stream(frames, collectors, 4);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < collectors; ++i) {
    clients.emplace_back([&, i] {
      CollectorOptions copts;
      copts.unix_path = io.unix_path;
      copts.peer = "collector-" + std::to_string(i);
      copts.fleet_hash = fleet_hash();
      CollectorClient(copts).run(parts[i]);
    });
  }
  for (auto& t : clients) t.join();
  s1.wait();
  d1.close();
  EXPECT_EQ(s1.stats().shutdowns_seen, collectors);
  const std::string decisions = file_bytes(dir + "/live.decisions");
  ASSERT_FALSE(decisions.empty());

  // Restart 1: the Shutdowns sit in the WAL suffix past the newest
  // snapshot (and possibly under it — either source must reach the
  // quota). wait() returning at all, with no client connected, IS the
  // regression check.
  Daemon::Options ropts = bounded_options(dir, true, false);
  Daemon d2(ControllerConfig{}, ropts);
  const auto opened2 = d2.open();
  EXPECT_EQ(opened2.shutdowns_recovered, collectors);
  IngestServer s2(d2, io);
  s2.start(opened2.wal_frames, opened2.ack_marks, opened2.shutdowns_recovered);
  s2.wait();
  EXPECT_EQ(s2.stats().shutdowns_seen, collectors);
  // Checkpoint past the Shutdowns so the next restart must get the count
  // from the snapshot alone (the suffix behind it is reclaimed).
  EXPECT_TRUE(d2.write_snapshot_now());
  d2.close();

  // Restart 2: empty suffix, snapshot-carried count.
  Daemon d3(ControllerConfig{}, ropts);
  const auto opened3 = d3.open();
  EXPECT_TRUE(opened3.snapshot_loaded);
  EXPECT_EQ(opened3.frames_recovered, 0u);
  EXPECT_EQ(opened3.shutdowns_recovered, collectors);
  IngestServer s3(d3, io);
  s3.start(opened3.wal_frames, opened3.ack_marks, opened3.shutdowns_recovered);
  s3.wait();
  d3.close();
  EXPECT_EQ(s3.stats().shutdowns_seen, collectors);

  // Neither restart may disturb the decision log.
  EXPECT_EQ(file_bytes(dir + "/live.decisions"), decisions);
}

}  // namespace
}  // namespace vmcw::service
