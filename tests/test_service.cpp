// Online service layer: protocol round-trips, WAL recovery, and the
// daemon's determinism contract — decision logs byte-identical across
// thread counts, live vs replay, and SIGKILL-style crash + resume.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "engine/engine.h"
#include "hardware/catalog.h"
#include "runtime/thread_pool.h"
#include "runtime/wire.h"
#include "service/churn.h"
#include "service/controller.h"
#include "service/daemon.h"
#include "service/id_table.h"
#include "service/protocol.h"
#include "service/telemetry_log.h"
#include "test_helpers.h"
#include "trace/generator.h"
#include "trace/presets.h"
#include "util/rng.h"

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

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One frame of every kind, with non-default values in every field.
std::vector<Frame> sample_frames() {
  return {
      HelloFrame{kProtocolVersion, 0xfeedface, "producer-a"},
      HeartbeatFrame{7},
      FlushFrame{8},
      ShutdownFrame{9},
      HostTelemetryDeltaFrame{
          4, 2, {VmSample{11, 1.5, 2048.0}, VmSample{12, 0.25, 512.5}}},
      VmArrivalFrame{3, 42, "web-tier", 2.75, 4096.0},
      VmDepartureFrame{5, 42},
      DecisionBatchFrame{
          6,
          true,
          {Decision{42, DecisionAction::kAdmit, DecisionReason::kAdmitted, -1,
                    3},
           Decision{11, DecisionAction::kMigrate, DecisionReason::kContention,
                    3, 9},
           Decision{12, DecisionAction::kHold, DecisionReason::kStaleTelemetry,
                    1, 1}}},
      AckFrame{0x1234567890abcdefULL},
      RejectFrame{42, RejectCode::kOutOfOrder, "gap after 41"},
  };
}

/// The small churn stream the WAL/daemon tests share: arrivals,
/// departures and agent blackouts over 8 ticks.
std::vector<Frame> small_churn() {
  ChurnOptions churn;
  churn.agents = 4;
  churn.initial_vms = 24;
  churn.ticks = 8;
  churn.arrivals_per_tick = 1.5;
  churn.departure_prob = 0.05;
  churn.blackout_prob = 0.2;
  churn.mean_host_fraction = 0.3;
  churn.seed = 11;
  return generate_churn(churn, ControllerConfig{});
}

/// A longer churn stream: ~60 steady residents, 5% departing per tick, so
/// a run sees hundreds of departures (and hundreds of departed slots for
/// the controller to drop), with agent blackouts for degraded ticks.
std::vector<Frame> long_churn(const ControllerConfig& config,
                              std::uint64_t seed, std::size_t ticks = 72) {
  ChurnOptions churn;
  churn.agents = 4;
  churn.initial_vms = 60;
  churn.ticks = ticks;
  churn.arrivals_per_tick = 3.0;
  churn.departure_prob = 0.05;
  churn.blackout_prob = 0.3;
  churn.mean_host_fraction = 0.3;
  churn.seed = seed;
  return generate_churn(churn, config);
}

std::uint64_t fnv1a64_of(const std::string& bytes) {
  return wire::fnv1a64(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                       bytes.size());
}

void write_wal(const std::string& path, const std::vector<Frame>& frames) {
  FrameLog wal;
  wal.open(path, fleet_config_hash(ControllerConfig{}), /*resume=*/false);
  for (const Frame& frame : frames) wal.append(frame, /*sync=*/false);
  wal.sync();
}

// ---------------------------------------------------------------- protocol

TEST(Protocol, RoundTripsEveryFrameKind) {
  for (const Frame& frame : sample_frames()) {
    const auto bytes = encode_frame(frame);
    ASSERT_GE(bytes.size(), kFrameHeaderSize);
    const DecodedFrame decoded = decode_frame(bytes.data(), bytes.size());
    EXPECT_EQ(decoded.consumed, bytes.size());
    EXPECT_EQ(decoded.frame, frame) << to_string(frame_kind(frame));
    // Encoding is pure: decode-then-re-encode is byte-identical.
    EXPECT_EQ(encode_frame(decoded.frame), bytes);
  }
}

TEST(Protocol, DecodesConcatenatedStream) {
  const auto frames = sample_frames();
  std::vector<std::uint8_t> bytes;
  for (const Frame& frame : frames) {
    const auto one = encode_frame(frame);
    bytes.insert(bytes.end(), one.begin(), one.end());
  }
  std::vector<Frame> decoded;
  for (std::size_t at = 0; at < bytes.size();) {
    DecodedFrame d = decode_frame(bytes.data() + at, bytes.size() - at);
    decoded.push_back(std::move(d.frame));
    at += d.consumed;
  }
  EXPECT_EQ(decoded, frames);
}

TEST(Protocol, RejectsTruncatedFrame) {
  const auto bytes = encode_frame(VmArrivalFrame{1, 2, "app", 1.0, 2.0});
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, kFrameHeaderSize - 1,
        kFrameHeaderSize, bytes.size() - 1}) {
    EXPECT_THROW(decode_frame(bytes.data(), cut), std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(Protocol, RejectsCorruptPayload) {
  auto bytes = encode_frame(HostTelemetryDeltaFrame{
      1, 2, {VmSample{3, 4.0, 5.0}}});
  bytes[kFrameHeaderSize + 2] ^= 0x40;  // flip a payload bit
  EXPECT_THROW(decode_frame(bytes.data(), bytes.size()), std::runtime_error);
}

TEST(Protocol, RejectsUnknownKind) {
  auto bytes = encode_frame(HeartbeatFrame{1});
  bytes[0] = 0x7f;
  EXPECT_THROW(decode_frame(bytes.data(), bytes.size()), std::runtime_error);
}

// --------------------------------------------------------------- frame WAL

TEST(FrameLog, RecoversIntactPrefixAndTruncatesTornTail) {
  const std::string dir = temp_dir("vmcw_service_torn");
  const std::string path = dir + "/torn.wal";
  const auto frames = sample_frames();
  write_wal(path, frames);

  // Simulate a crash mid-append: a partial frame at the tail.
  const std::string intact = file_bytes(path);
  const auto partial = encode_frame(FlushFrame{99});
  std::string torn = intact;
  torn.append(reinterpret_cast<const char*>(partial.data()),
              partial.size() - 5);
  write_bytes(path, torn);

  FrameLog log;
  const auto recovery =
      log.open(path, fleet_config_hash(ControllerConfig{}), /*resume=*/true);
  EXPECT_FALSE(recovery.stale);
  EXPECT_TRUE(recovery.torn_tail);
  EXPECT_EQ(recovery.bytes_discarded, partial.size() - 5);
  EXPECT_EQ(recovery.frames, frames);
  // The torn tail is gone from disk; appending continues cleanly.
  log.append(FlushFrame{100});
  log.close();
  const auto contents = read_frame_log(path);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.frames.size(), frames.size() + 1);
  EXPECT_EQ(contents.frames.back(), Frame{FlushFrame{100}});
}

TEST(FrameLog, StaleOnFleetHashMismatch) {
  const std::string dir = temp_dir("vmcw_service_stale");
  const std::string path = dir + "/stale.wal";
  write_wal(path, sample_frames());

  FrameLog log;
  const auto recovery = log.open(path, /*fleet_hash=*/0xdead, /*resume=*/true);
  EXPECT_TRUE(recovery.stale);
  EXPECT_TRUE(recovery.frames.empty());
  log.close();
  // The file was rewritten for the new fleet shape.
  EXPECT_EQ(read_frame_log(path).fleet_hash, 0xdeadu);
}

TEST(FrameLog, ReadMatchesRecovery) {
  const std::string dir = temp_dir("vmcw_service_read");
  const std::string path = dir + "/read.wal";
  const auto frames = small_churn();
  write_wal(path, frames);

  const WalContents contents = read_frame_log(path);
  EXPECT_EQ(contents.fleet_hash, fleet_config_hash(ControllerConfig{}));
  EXPECT_EQ(contents.frames, frames);
  EXPECT_FALSE(contents.torn_tail);

  FrameLog log;
  const auto recovery =
      log.open(path, fleet_config_hash(ControllerConfig{}), /*resume=*/true);
  EXPECT_EQ(recovery.frames, frames);
}

// --------------------------------------------------- batched checksums

/// Raw frames with random payloads (the checksum pass never parses them);
/// `length_of` draws each payload length.
std::vector<std::uint8_t> random_frames(
    Rng& rng, std::size_t count,
    const std::function<std::size_t()>& length_of) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> payload(length_of());
    for (std::uint8_t& b : payload)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    wire::ByteWriter header;
    header.u8(static_cast<std::uint8_t>(rng.uniform_int(1, 10)));
    header.u64(payload.size());
    header.u64(wire::fnv1a64(payload.data(), payload.size()));
    bytes.insert(bytes.end(), header.bytes().begin(), header.bytes().end());
    bytes.insert(bytes.end(), payload.begin(), payload.end());
  }
  return bytes;
}

/// Reference: index of the first frame whose header or checksum is bad,
/// one frame at a time with a serial wire::fnv1a64 per payload.
std::size_t serial_first_bad(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  std::size_t index = 0;
  while (bytes.size() - off >= kFrameHeaderSize) {
    const std::uint8_t* header = bytes.data() + off;
    const std::uint64_t length = wire::load_u64(header + 1);
    if (header[0] < 1 || header[0] > 10 ||
        bytes.size() - off - kFrameHeaderSize < length ||
        wire::fnv1a64(header + kFrameHeaderSize, length) !=
            wire::load_u64(header + 9))
      break;
    off += kFrameHeaderSize + length;
    ++index;
  }
  return index;
}

std::size_t batched_first_bad(const std::vector<std::uint8_t>& bytes) {
  std::vector<RecordExtent> extents;
  walk_record_extents(bytes.data(), bytes.size(), RecordKinds{1, 10},
                      bytes.size(), extents);
  return first_checksum_mismatch(extents);
}

/// Byte offsets of each frame's start in a well-formed image.
std::vector<std::size_t> frame_offsets(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::size_t> offsets;
  for (std::size_t off = 0; off < bytes.size();
       off += kFrameHeaderSize + wire::load_u64(bytes.data() + off + 1))
    offsets.push_back(off);
  return offsets;
}

TEST(ChecksumKernel, FindsTheSameFirstBadFrameAsASerialLoop) {
  Rng rng(0xc0ffee);
  const std::function<std::size_t()> mixes[] = {
      // Mostly empty payloads: lanes finish the moment they take a frame.
      [&] { return std::size_t{rng.uniform() < 0.75 ? 0u : 5u}; },
      // daemon_uptime's bimodal mix of ~100 B and ~900 B frames.
      [&] {
        return static_cast<std::size_t>(rng.uniform() < 0.8 ? 100 : 900) +
               static_cast<std::size_t>(rng.uniform_int(0, 16));
      },
      [&] { return static_cast<std::size_t>(rng.uniform_int(0, 300)); },
  };
  for (const auto& mix : mixes) {
    for (std::size_t count = 0; count <= 13; ++count) {
      const std::vector<std::uint8_t> good = random_frames(rng, count, mix);
      ASSERT_EQ(serial_first_bad(good), count);
      EXPECT_EQ(batched_first_bad(good), count);
      const std::vector<std::size_t> offsets = frame_offsets(good);
      ASSERT_EQ(offsets.size(), count);
      // A bad frame at every position: every lane, then the serial tail.
      for (std::size_t bad = 0; bad < count; ++bad) {
        std::vector<std::uint8_t> bytes = good;
        const std::size_t length = static_cast<std::size_t>(
            wire::load_u64(bytes.data() + offsets[bad] + 1));
        // Flip a payload bit, or the checksum itself for an empty payload.
        const std::size_t at =
            length > 0 ? offsets[bad] + kFrameHeaderSize +
                             static_cast<std::size_t>(
                                 rng.uniform_int(0, static_cast<std::int64_t>(
                                                        length - 1)))
                       : offsets[bad] + 9;
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        EXPECT_EQ(serial_first_bad(bytes), bad);
        EXPECT_EQ(batched_first_bad(bytes), bad)
            << "count " << count << ", bad " << bad;
      }
      // A torn final extent: the image ends partway through the last frame.
      if (count > 0) {
        for (const std::size_t cut : {std::size_t{1}, kFrameHeaderSize + 1}) {
          if (cut > good.size() - offsets.back()) continue;
          std::vector<std::uint8_t> torn(good.begin(), good.end() - cut);
          EXPECT_EQ(serial_first_bad(torn), count - 1);
          EXPECT_EQ(batched_first_bad(torn), count - 1);
        }
      }
    }
  }
}

// ----------------------------------------------------------- determinism

TEST(Daemon, ReplayByteIdenticalAcrossThreadCounts) {
  const std::string dir = temp_dir("vmcw_service_threads");
  const std::string wal = dir + "/churn.wal";
  // Long enough that the controller drops several hundred departed slots
  // mid-stream: the thread-count pin covers compaction too.
  const auto frames = long_churn(ControllerConfig{}, 11, 128);
  std::size_t departures = 0;
  for (const Frame& frame : frames)
    departures += std::holds_alternative<VmDepartureFrame>(frame);
  EXPECT_GE(departures, 300u);
  write_wal(wal, frames);

  std::string reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::string decisions =
        dir + "/decisions_" + std::to_string(threads);
    ThreadPool pool(threads);
    ScopedPoolOverride scope(pool);
    const DaemonStats stats = replay_wal(wal, decisions, ControllerConfig{},
                                         /*resume=*/false, /*durable=*/false);
    EXPECT_GT(stats.batches, 0u);
    EXPECT_GT(stats.admits, 0u);
    const std::string bytes = file_bytes(decisions);
    ASSERT_FALSE(bytes.empty());
    if (reference.empty())
      reference = bytes;
    else
      EXPECT_EQ(bytes, reference) << "at " << threads << " threads";
  }
}

TEST(Daemon, CrashAndResumeByteIdentical) {
  const std::string dir = temp_dir("vmcw_service_resume");
  const std::string wal = dir + "/churn.wal";
  write_wal(wal, small_churn());

  const std::string full_path = dir + "/decisions_full";
  replay_wal(wal, full_path, ControllerConfig{}, /*resume=*/false,
             /*durable=*/false);
  const std::string full = file_bytes(full_path);
  ASSERT_GT(full.size(), kFrameHeaderSize);

  // A SIGKILL can land anywhere: mid-header, mid-frame, or between
  // frames. Resuming from any prefix must complete to the same bytes.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(pool);
    for (const std::size_t cut :
         {std::size_t{5}, full.size() / 3, full.size() / 2,
          full.size() - 3}) {
      const std::string crashed =
          dir + "/decisions_cut" + std::to_string(cut) + "_t" +
          std::to_string(threads);
      write_bytes(crashed, full.substr(0, cut));
      replay_wal(wal, crashed, ControllerConfig{}, /*resume=*/true,
                 /*durable=*/false);
      EXPECT_EQ(file_bytes(crashed), full)
          << "cut at " << cut << ", " << threads << " threads";
    }
  }
}

TEST(Daemon, LiveIngestMatchesReplay) {
  const std::string dir = temp_dir("vmcw_service_live");
  const auto frames = small_churn();

  Daemon::Options options;
  options.wal_path = dir + "/live.wal";
  options.decisions_path = dir + "/decisions_live";
  options.durable = false;
  Daemon daemon(ControllerConfig{}, options);
  const auto opened = daemon.open();
  EXPECT_EQ(opened.frames_recovered, 0u);
  for (const Frame& frame : frames) daemon.ingest(frame);
  daemon.close();

  // The live session's WAL replays to the exact same decision bytes.
  const std::string replayed = dir + "/decisions_replay";
  const DaemonStats stats =
      replay_wal(options.wal_path, replayed, ControllerConfig{},
                 /*resume=*/false, /*durable=*/false);
  EXPECT_EQ(stats.batches, daemon.stats().batches);
  const std::string live_bytes = file_bytes(options.decisions_path);
  ASSERT_FALSE(live_bytes.empty());
  EXPECT_EQ(live_bytes, file_bytes(replayed));
}

std::vector<std::uint8_t> state_bytes(const IncrementalController& c) {
  wire::ByteWriter w;
  c.save_state(w);
  return w.bytes();
}

/// Slot count of a saved state: its leading u64.
std::uint64_t state_slots(const IncrementalController& c) {
  const auto bytes = state_bytes(c);
  wire::ByteReader r(bytes.data(), bytes.size());
  return r.u64();
}

std::uint64_t state_hash(const IncrementalController& c) {
  const auto bytes = state_bytes(c);
  return wire::fnv1a64(bytes.data(), bytes.size());
}

// Golden pins: the decision-log bytes of two long churn streams fed through
// Daemon::ingest, recorded once and frozen, and the controller's save_state
// bytes at the end of each stream and right after a mid-stream departure
// (a state still holding the departed slot). Any controller change that
// claims to keep decisions and snapshots (state layout, bookkeeping,
// performance) must leave every hash alone. The spread stream runs on a
// bounded pool with small failure domains, so it also pins capacity holds,
// VMs departing while still queued, and holds on hosts whose overload
// repair cannot fix.
TEST(Daemon, GoldenDecisionLogPins) {
  ControllerConfig spread;
  spread.pool = HostPool({HostClass{hs23_elite_blade(), 28}});
  spread.domains.spread = true;
  spread.domains.spread_k = 3;
  spread.domains.hosts_per_rack = 2;
  spread.domains.racks_per_power_domain = 2;
  const struct {
    const char* name;
    ControllerConfig config;
    std::uint64_t pin;
    std::uint64_t mid_state_pin;
    std::uint64_t end_state_pin;
  } cases[] = {
      {"spread_off", ControllerConfig{}, 0x5841b3a661a1002cULL,
       0x528dffe6a9af4b61ULL, 0xd094b38449662ea8ULL},
      {"spread_on", spread, 0x8994b0a31dc929ecULL, 0xe9e453782e2b41bdULL,
       0x9b0df7bb0fed6fcfULL},
  };
  for (const auto& c : cases) {
    const std::string dir = temp_dir(
        (std::string("vmcw_service_golden_") + c.name).c_str());
    Daemon::Options options;
    options.wal_path = dir + "/live.wal";
    options.decisions_path = dir + "/live.decisions";
    options.durable = false;
    Daemon daemon(c.config, options);
    daemon.open();
    std::size_t departures = 0;
    std::size_t stuck_holds = 0;
    std::size_t flushes = 0;
    std::optional<std::uint64_t> mid_state;
    for (const Frame& frame : long_churn(c.config, 20141208)) {
      departures += std::holds_alternative<VmDepartureFrame>(frame);
      flushes += std::holds_alternative<FlushFrame>(frame);
      for (const Decision& d : daemon.ingest(frame).decisions)
        stuck_holds += d.reason == DecisionReason::kNoCapacity && d.from >= 0;
      if (!mid_state && flushes >= 30 &&
          std::holds_alternative<VmDepartureFrame>(frame)) {
        EXPECT_GT(state_slots(daemon.controller()),
                  daemon.controller().resident_vms())
            << c.name;
        mid_state = state_hash(daemon.controller());
      }
    }
    const std::uint64_t end_state = state_hash(daemon.controller());
    daemon.close();
    const DaemonStats& stats = daemon.stats();
    EXPECT_GE(departures, 150u) << c.name;
    EXPECT_GE(stats.batches, 60u) << c.name;
    EXPECT_GT(stats.admits, 0u) << c.name;
    EXPECT_GT(stats.migrations, 0u) << c.name;
    EXPECT_GT(stats.holds, 0u) << c.name;
    EXPECT_GT(stats.degraded_ticks, 0u) << c.name;
    if (c.config.domains.spread) {
      EXPECT_GT(stuck_holds, 0u);
    }
    EXPECT_EQ(fnv1a64_of(file_bytes(options.decisions_path)), c.pin)
        << c.name << ": decision log bytes moved";
    ASSERT_TRUE(mid_state.has_value()) << c.name;
    EXPECT_EQ(*mid_state, c.mid_state_pin)
        << c.name << ": save_state bytes after a departure moved";
    EXPECT_EQ(end_state, c.end_state_pin)
        << c.name << ": save_state bytes at the end of the stream moved";
  }
}

// ------------------------------------------------------------- id table

TEST(IdTable, AgreesWithAnOrderedMapUnderChurn) {
  // Inserts, overwrites and erases over a small id range, so probe runs
  // collide and wrap; ids include 0 and the all-ones word.
  Rng rng(33);
  IdTable table;
  std::map<std::uint64_t, std::uint32_t> reference;
  auto id_of = [](std::int64_t k) {
    return k == 0 ? ~std::uint64_t{0} : static_cast<std::uint64_t>(k - 1) * 7919;
  };
  for (int step = 0; step < 40000; ++step) {
    const std::uint64_t id = id_of(rng.uniform_int(0, 600));
    if (rng.bernoulli(0.45)) {
      table.erase(id);
      reference.erase(id);
    } else {
      const auto value = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
      table.assign(id, value);
      reference[id] = value;
    }
    if (step % 997 == 0) {
      for (std::int64_t k = 0; k <= 600; ++k) {
        const auto it = reference.find(id_of(k));
        ASSERT_EQ(table.find(id_of(k)),
                  it == reference.end() ? IdTable::kNone : it->second)
            << "step " << step << " id " << id_of(k);
      }
      ASSERT_EQ(table.size(), reference.size());
    }
  }
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(id_of(1)), IdTable::kNone);
}

// ------------------------------------------------------------- controller

TEST(Controller, StaleTelemetryHoldsAndDegrades) {
  IncrementalController controller{ControllerConfig{}};
  const ServerSpec spec = hs23_elite_blade();
  const double cpu = spec.cpu_rpe2 * 0.3;
  const double mem = spec.memory_mb * 0.3;

  controller.apply(HelloFrame{kProtocolVersion, 0, "test"});
  controller.apply(VmArrivalFrame{1, 101, "", cpu, mem});
  const auto tick1 = controller.tick(1);
  ASSERT_EQ(tick1.decisions.size(), 1u);
  EXPECT_EQ(tick1.decisions[0].action, DecisionAction::kAdmit);
  const std::int32_t host = controller.host_of(101);
  ASSERT_NE(host, -1);

  // Within stale_after (default 2) ticks of its last sample: no holds.
  EXPECT_FALSE(controller.tick(2).degraded);
  EXPECT_FALSE(controller.tick(3).degraded);

  // One past the deadline: hold + degraded, and the VM's host is frozen —
  // a newcomer that would first-fit onto it must land elsewhere.
  controller.apply(VmArrivalFrame{4, 202, "", cpu, mem});
  const auto tick4 = controller.tick(4);
  EXPECT_TRUE(tick4.degraded);
  EXPECT_TRUE(controller.last_tick_degraded());
  bool stale_hold = false;
  for (const Decision& d : tick4.decisions)
    if (d.vm == 101 && d.action == DecisionAction::kHold &&
        d.reason == DecisionReason::kStaleTelemetry && d.from == host)
      stale_hold = true;
  EXPECT_TRUE(stale_hold);
  ASSERT_NE(controller.host_of(202), -1);
  EXPECT_NE(controller.host_of(202), host);

  // Fresh telemetry clears the degradation.
  controller.apply(
      HostTelemetryDeltaFrame{5, 0, {VmSample{101, cpu, mem}}});
  EXPECT_FALSE(controller.tick(5).degraded);
}

TEST(Controller, HoldsWithoutCapacityAndRetriesFifo) {
  ControllerConfig config;
  config.pool = HostPool({HostClass{hs23_elite_blade(), 1}});
  IncrementalController controller{config};
  const ServerSpec spec = hs23_elite_blade();

  controller.apply(
      VmArrivalFrame{1, 1, "", spec.cpu_rpe2 * 0.6, spec.memory_mb * 0.6});
  controller.apply(
      VmArrivalFrame{1, 2, "", spec.cpu_rpe2 * 0.5, spec.memory_mb * 0.5});
  const auto tick1 = controller.tick(1);
  ASSERT_EQ(tick1.decisions.size(), 2u);
  EXPECT_EQ(tick1.decisions[0].vm, 1u);
  EXPECT_EQ(tick1.decisions[0].action, DecisionAction::kAdmit);
  EXPECT_EQ(tick1.decisions[1].vm, 2u);
  EXPECT_EQ(tick1.decisions[1].action, DecisionAction::kHold);
  EXPECT_EQ(tick1.decisions[1].reason, DecisionReason::kNoCapacity);

  // Still queued next tick; admitted once the first VM departs.
  const auto tick2 = controller.tick(2);
  ASSERT_EQ(tick2.decisions.size(), 1u);
  EXPECT_EQ(tick2.decisions[0].action, DecisionAction::kHold);
  controller.apply(VmDepartureFrame{2, 1});
  const auto tick3 = controller.tick(3);
  ASSERT_EQ(tick3.decisions.size(), 1u);
  EXPECT_EQ(tick3.decisions[0].vm, 2u);
  EXPECT_EQ(tick3.decisions[0].action, DecisionAction::kAdmit);
}

TEST(Controller, AdmissionHonorsDomainSpread) {
  ControllerConfig config;
  config.domains.spread = true;
  config.domains.spread_k = 2;
  config.domains.hosts_per_rack = 1;
  config.domains.racks_per_power_domain = 2;
  IncrementalController controller{config};
  const ServerSpec spec = hs23_elite_blade();
  const double cpu = spec.cpu_rpe2 * 0.1;
  const double mem = spec.memory_mb * 0.1;

  // Two replicas of one app, small enough to share a host — the rack and
  // power-feed spread rules must still split them across both layers.
  controller.apply(VmArrivalFrame{1, 1, "web", cpu, mem});
  controller.apply(VmArrivalFrame{1, 2, "web", cpu, mem});
  controller.tick(1);
  const std::int32_t a = controller.host_of(1);
  const std::int32_t b = controller.host_of(2);
  ASSERT_NE(a, -1);
  ASSERT_NE(b, -1);
  EXPECT_NE(a, b);  // different racks (1 host per rack)
  EXPECT_NE(a / 2, b / 2);  // different power feeds (2 racks per feed)
}

TEST(Controller, RejectsMismatchedHello) {
  IncrementalController controller{ControllerConfig{}};
  EXPECT_THROW(
      controller.apply(HelloFrame{kProtocolVersion + 1, 0, "peer"}),
      std::runtime_error);
  EXPECT_THROW(controller.apply(HelloFrame{kProtocolVersion, 0x1234, "peer"}),
               std::runtime_error);
  // A matching hash (or 0 = unchecked) is accepted.
  controller.apply(
      HelloFrame{kProtocolVersion, fleet_config_hash(ControllerConfig{}), ""});
}


// ------------------------------------------------- controller compaction
//
// tick() drops every departed VM's slot at its end. These pin the edges of
// that: ids coming back, input for ids already dropped, departures from
// the admission queue, and snapshots that still hold a departed slot.

TEST(ControllerCompaction, DepartedIdReArrivingSameTickGetsAFreshSlot) {
  IncrementalController controller{ControllerConfig{}};
  const ServerSpec spec = hs23_elite_blade();
  const double cpu = spec.cpu_rpe2 * 0.3;
  const double mem = spec.memory_mb * 0.3;
  controller.apply(VmArrivalFrame{1, 7, "", cpu, mem});
  controller.apply(VmArrivalFrame{1, 8, "", cpu, mem});
  controller.tick(1);
  ASSERT_NE(controller.host_of(7), -1);

  // Departure and re-arrival between the same two Flushes: the old slot
  // is released, the new one queues for admission like any newcomer.
  controller.apply(VmDepartureFrame{2, 7});
  controller.apply(VmArrivalFrame{2, 7, "", cpu * 2, mem * 2});
  EXPECT_EQ(controller.host_of(7), -1);
  EXPECT_EQ(state_slots(controller), 3u);  // 7's old slot is still held
  const auto tick2 = controller.tick(2);
  ASSERT_EQ(tick2.decisions.size(), 1u);
  EXPECT_EQ(tick2.decisions[0].vm, 7u);
  EXPECT_EQ(tick2.decisions[0].action, DecisionAction::kAdmit);
  EXPECT_EQ(controller.host_of(7), tick2.decisions[0].to);
  EXPECT_EQ(controller.resident_vms(), 2u);
  EXPECT_EQ(state_slots(controller), 2u);  // ...until the tick ends

  // The surviving slot is the live one: a second departure releases it.
  controller.apply(VmDepartureFrame{3, 7});
  controller.tick(3);
  EXPECT_EQ(controller.host_of(7), -1);
  EXPECT_EQ(controller.resident_vms(), 1u);
  EXPECT_EQ(state_slots(controller), 1u);
}

TEST(ControllerCompaction, DepartedIdReArrivingLaterIsAdmittedAgain) {
  IncrementalController controller{ControllerConfig{}};
  const ServerSpec spec = hs23_elite_blade();
  const double cpu = spec.cpu_rpe2 * 0.3;
  const double mem = spec.memory_mb * 0.3;
  controller.apply(VmArrivalFrame{1, 7, "", cpu, mem});
  controller.tick(1);
  controller.apply(VmDepartureFrame{2, 7});
  EXPECT_TRUE(controller.tick(2).decisions.empty());
  EXPECT_EQ(state_slots(controller), 0u);

  controller.apply(VmArrivalFrame{3, 7, "", cpu, mem});
  const auto tick3 = controller.tick(3);
  ASSERT_EQ(tick3.decisions.size(), 1u);
  EXPECT_EQ(tick3.decisions[0].action, DecisionAction::kAdmit);
  EXPECT_NE(controller.host_of(7), -1);
  EXPECT_EQ(controller.resident_vms(), 1u);
}

TEST(ControllerCompaction, InputForADroppedIdIsANoOp) {
  IncrementalController controller{ControllerConfig{}};
  const ServerSpec spec = hs23_elite_blade();
  const double cpu = spec.cpu_rpe2 * 0.3;
  const double mem = spec.memory_mb * 0.3;
  controller.apply(VmArrivalFrame{1, 7, "", cpu, mem});
  controller.apply(VmArrivalFrame{1, 8, "", cpu, mem});
  controller.tick(1);
  controller.apply(VmDepartureFrame{2, 7});
  controller.tick(2);

  // Late telemetry and a duplicate departure for 7 change no state...
  const auto before = state_bytes(controller);
  controller.apply(HostTelemetryDeltaFrame{
      3, 0, {VmSample{7, cpu * 3, mem * 3}, VmSample{8, cpu, mem}}});
  controller.apply(VmDepartureFrame{3, 7});
  const auto after = state_bytes(controller);
  EXPECT_NE(after, before);  // 8's sample did land
  IncrementalController reference{ControllerConfig{}};
  {
    wire::ByteReader r(before.data(), before.size());
    reference.restore_state(r);
  }
  reference.apply(
      HostTelemetryDeltaFrame{3, 0, {VmSample{8, cpu, mem}}});
  EXPECT_EQ(after, state_bytes(reference));

  // ...and produce no decision about it.
  const auto tick3 = controller.tick(3);
  for (const Decision& d : tick3.decisions) EXPECT_NE(d.vm, 7u);
  EXPECT_EQ(controller.host_of(7), -1);
  EXPECT_EQ(controller.resident_vms(), 1u);
}

TEST(ControllerCompaction, DepartureFromTheAdmissionQueueKeepsFifoOrder) {
  ControllerConfig config;
  config.pool = HostPool({HostClass{hs23_elite_blade(), 1}});
  IncrementalController controller{config};
  const ServerSpec spec = hs23_elite_blade();
  auto arrive = [&](std::uint64_t tick, std::uint64_t vm, double frac) {
    controller.apply(VmArrivalFrame{tick, vm, "", spec.cpu_rpe2 * frac,
                                    spec.memory_mb * frac});
  };

  // 1 fills the only host; 2, 3 and 4 queue behind it in that order.
  arrive(1, 1, 0.6);
  arrive(1, 2, 0.5);
  arrive(1, 3, 0.5);
  arrive(1, 4, 0.1);
  const auto tick1 = controller.tick(1);
  ASSERT_EQ(tick1.decisions.size(), 4u);
  EXPECT_EQ(tick1.decisions[0].action, DecisionAction::kAdmit);
  EXPECT_EQ(tick1.decisions[3].vm, 4u);
  EXPECT_EQ(tick1.decisions[3].action, DecisionAction::kAdmit);

  // 2 leaves while still queued: it drops out of the queue with no
  // decision, and 3 keeps its place.
  controller.apply(VmDepartureFrame{2, 2});
  const auto tick2 = controller.tick(2);
  ASSERT_EQ(tick2.decisions.size(), 1u);
  EXPECT_EQ(tick2.decisions[0].vm, 3u);
  EXPECT_EQ(tick2.decisions[0].action, DecisionAction::kHold);
  EXPECT_EQ(state_slots(controller), 3u);

  // 1 (a slot ahead of the queue) leaves: the queue survives the shift
  // and 3, then the newcomer 5, are admitted in arrival order.
  controller.apply(VmDepartureFrame{3, 1});
  arrive(3, 5, 0.2);
  const auto tick3 = controller.tick(3);
  ASSERT_EQ(tick3.decisions.size(), 2u);
  EXPECT_EQ(tick3.decisions[0].vm, 3u);
  EXPECT_EQ(tick3.decisions[0].action, DecisionAction::kAdmit);
  EXPECT_EQ(tick3.decisions[1].vm, 5u);
  EXPECT_EQ(tick3.decisions[1].action, DecisionAction::kAdmit);
  EXPECT_EQ(controller.host_of(2), -1);
  EXPECT_EQ(controller.resident_vms(), 3u);
  EXPECT_EQ(state_slots(controller), 3u);
}

TEST(ControllerCompaction, SnapshotHoldingADepartedSlotResumesIdentically) {
  ControllerConfig config;
  config.domains.spread = true;
  config.domains.spread_k = 3;
  const auto frames = long_churn(config, 5, 48);

  // Cut right after a mid-stream departure, before the Flush that drops
  // its slot.
  std::size_t cut = 0;
  std::uint64_t flushes = 0;
  for (std::size_t i = 0; i < frames.size() && cut == 0; ++i) {
    if (std::holds_alternative<FlushFrame>(frames[i])) ++flushes;
    if (flushes >= 24 && std::holds_alternative<VmDepartureFrame>(frames[i]))
      cut = i + 1;
  }
  ASSERT_GT(cut, 0u);

  auto step = [](IncrementalController& c, const Frame& frame) {
    if (const auto* flush = std::get_if<FlushFrame>(&frame))
      return encode_frame(c.tick(flush->tick));
    c.apply(frame);
    return std::vector<std::uint8_t>{};
  };

  IncrementalController live{config};
  for (std::size_t i = 0; i < cut; ++i) step(live, frames[i]);
  const auto snapshot = state_bytes(live);
  EXPECT_GT(state_slots(live), live.resident_vms());

  IncrementalController resumed{config};
  wire::ByteReader r(snapshot.data(), snapshot.size());
  resumed.restore_state(r);
  EXPECT_EQ(state_bytes(resumed), snapshot);

  std::vector<std::uint64_t> ids;
  for (const Frame& frame : frames)
    if (const auto* arrival = std::get_if<VmArrivalFrame>(&frame))
      ids.push_back(arrival->vm);
  std::size_t ticks = 0;
  for (std::size_t i = cut; i < frames.size(); ++i) {
    EXPECT_EQ(step(resumed, frames[i]), step(live, frames[i]))
        << "frame " << i;
    if (!std::holds_alternative<FlushFrame>(frames[i])) continue;
    ++ticks;
    EXPECT_EQ(state_slots(live), live.resident_vms());
    EXPECT_EQ(state_bytes(resumed), state_bytes(live)) << "frame " << i;
    EXPECT_EQ(resumed.resident_vms(), live.resident_vms());
    for (const std::uint64_t id : ids)
      ASSERT_EQ(resumed.host_of(id), live.host_of(id)) << "vm " << id;
  }
  EXPECT_GE(ticks, 20u);
}

}  // namespace
}  // namespace vmcw::service
