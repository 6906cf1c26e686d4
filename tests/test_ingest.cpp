// Network ingestion front-end: the bounded ingress queue, the collector's
// retry schedule, protocol decode under fuzzed input, the deterministic
// I/O fault plan, the WAL's hooked I/O (EINTR, short writes, injected
// fsync stalls), and the end-to-end contracts over real Unix sockets —
// multi-collector chaos runs whose WAL replays byte-identical at any
// thread count, WAL-stall shedding that never drops an acked frame,
// exactly-once WAL semantics across a daemon crash + resume, and the
// fail-stop on a WAL write or sync error that keeps every Ack durable.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "service/io_fault_hooks.h"
#include "chaos/io_faults.h"
#include "runtime/bounded_queue.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "runtime/wire.h"
#include "service/churn.h"
#include "service/collector.h"
#include "service/daemon.h"
#include "service/ingest.h"
#include "service/protocol.h"
#include "service/telemetry_log.h"
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

/// The churn stream the socket tests deliver: small enough to run in
/// milliseconds, busy enough to exercise arrivals, departures, telemetry
/// and every tick-spine frame.
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
                    3}}},
      AckFrame{12345},
      RejectFrame{7, RejectCode::kShedding, "wal stalled"},
  };
}

// ------------------------------------------------------------ BoundedQueue

TEST(BoundedQueue, FifoWithBackpressureAtCapacity) {
  BoundedQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  // Full: the producer's signal to stop reading its socket.
  EXPECT_FALSE(q.try_push(4));
  EXPECT_EQ(q.size(), 3u);

  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.try_push(4));  // room again
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.pop().value(), 4);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, CloseDrainsPendingThenSignalsShutdown) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.push(10));
  EXPECT_TRUE(q.push(20));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push(30));
  EXPECT_FALSE(q.push(40));
  // Pending items survive the close; then the empty optional ends the
  // consumer loop.
  EXPECT_EQ(q.pop().value(), 10);
  EXPECT_EQ(q.pop().value(), 20);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(2);
  std::optional<int> got = 99;
  std::thread consumer([&] { got = q.pop(); });
  q.close();
  consumer.join();
  EXPECT_FALSE(got.has_value());
}

// ----------------------------------------------------------------- backoff

TEST(Backoff, DoublesUntilCapAndSaturates) {
  EXPECT_EQ(reconnect_backoff_ms(0, 2, 200), 2u);
  EXPECT_EQ(reconnect_backoff_ms(1, 2, 200), 4u);
  EXPECT_EQ(reconnect_backoff_ms(2, 2, 200), 8u);
  EXPECT_EQ(reconnect_backoff_ms(6, 2, 200), 128u);
  EXPECT_EQ(reconnect_backoff_ms(7, 2, 200), 200u);  // 256 capped
  EXPECT_EQ(reconnect_backoff_ms(1000, 2, 200), 200u);
  // The shift saturates instead of overflowing into a tiny delay.
  EXPECT_EQ(reconnect_backoff_ms(62, 2, 200), 200u);
  EXPECT_EQ(reconnect_backoff_ms(63, ~0ULL, 500), 500u);
  EXPECT_EQ(reconnect_backoff_ms(5, 0, 200), 0u);  // backoff disabled
}

// ----------------------------------------------------------- decode fuzzing

/// Either decode_frame throws, or it returns a frame whose re-encoding is
/// byte-identical to what it consumed. Nothing in between: no
/// partially-understood input, ever.
void expect_decode_total(const std::uint8_t* data, std::size_t size) {
  DecodedFrame decoded;
  try {
    decoded = decode_frame(data, size);
  } catch (const std::runtime_error&) {
    return;  // rejected outright: fine
  }
  ASSERT_LE(decoded.consumed, size);
  const std::vector<std::uint8_t> again = encode_frame(decoded.frame);
  ASSERT_EQ(again.size(), decoded.consumed);
  EXPECT_EQ(std::vector<std::uint8_t>(data, data + decoded.consumed), again);
}

TEST(ProtocolFuzz, TruncationsBitFlipsAndLengthLies) {
  Rng rng(0x1060'57f0);
  for (const Frame& frame : sample_frames()) {
    const std::vector<std::uint8_t> good = encode_frame(frame);
    // Every truncation point.
    for (std::size_t cut = 0; cut < good.size(); ++cut) {
      EXPECT_THROW(decode_frame(good.data(), cut), std::runtime_error)
          << to_string(frame_kind(frame)) << " cut at " << cut;
    }
    // Random single-bit flips anywhere in the encoding.
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint8_t> bytes = good;
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      expect_decode_total(bytes.data(), bytes.size());
    }
    // Length-field lies: claim anything from 0 to far past the buffer.
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint8_t> bytes = good;
      const auto lie = static_cast<std::uint64_t>(
          rng.uniform_int(0, 1'000'000));
      for (std::size_t b = 0; b < 8; ++b)
        bytes[1 + b] = static_cast<std::uint8_t>(lie >> (8 * b));
      expect_decode_total(bytes.data(), bytes.size());
    }
  }
}

/// The strict field-by-field reading the acceptance rule must agree with:
/// every field present, every tag a known value, a DecisionBatch's
/// `degraded` byte 0 or 1, and nothing left over.
bool reference_accepts(FrameKind kind, const std::vector<std::uint8_t>& p) {
  wire::ByteReader r(p.data(), p.size());
  try {
    switch (kind) {
      case FrameKind::kHello:
        r.u32();
        r.u64();
        r.str();
        break;
      case FrameKind::kHeartbeat:
      case FrameKind::kFlush:
      case FrameKind::kShutdown:
      case FrameKind::kAck:
        r.u64();
        break;
      case FrameKind::kHostTelemetryDelta: {
        r.u64();
        r.u64();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
          r.u64();
          r.f64();
          r.f64();
        }
        break;
      }
      case FrameKind::kVmArrival:
        r.u64();
        r.u64();
        r.str();
        r.f64();
        r.f64();
        break;
      case FrameKind::kVmDeparture:
        r.u64();
        r.u64();
        break;
      case FrameKind::kDecisionBatch: {
        r.u64();
        if (r.u8() > 1) return false;
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
          r.u64();
          const std::uint8_t action = r.u8();
          const std::uint8_t reason = r.u8();
          if (action > static_cast<std::uint8_t>(DecisionAction::kMigrate) ||
              reason >
                  static_cast<std::uint8_t>(DecisionReason::kStaleTelemetry))
            return false;
          r.i32();
          r.i32();
        }
        break;
      }
      case FrameKind::kReject: {
        r.u64();
        const std::uint8_t code = r.u8();
        if (code < static_cast<std::uint8_t>(RejectCode::kBadHello) ||
            code > static_cast<std::uint8_t>(RejectCode::kUnexpectedFrame))
          return false;
        r.str();
        break;
      }
    }
  } catch (const std::runtime_error&) {
    return false;
  }
  return r.exhausted();
}

/// Frame `payload` as a `kind` frame with matching length and checksum
/// words, so a mutation reaches the payload rules instead of failing the
/// checksum.
std::vector<std::uint8_t> reframe(FrameKind kind,
                                  const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> bytes(kFrameHeaderSize);
  bytes[0] = static_cast<std::uint8_t>(kind);
  wire::store_u64(bytes.data() + 1, payload.size());
  wire::store_u64(bytes.data() + 9,
                  wire::fnv1a64(payload.data(), payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

/// Tallies one payload's verdicts: payload_decodes, the strict reading and
/// decode_frame must agree, and an accepted payload must re-encode to the
/// same bytes. The first few disagreements are kept for the message.
struct VerdictTally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t disagreements = 0;
  std::string first;

  void check(FrameKind kind, const std::vector<std::uint8_t>& payload,
             const std::string& what) {
    const bool checked = payload_decodes(kind, payload.data(), payload.size());
    const bool strict = reference_accepts(kind, payload);
    const std::vector<std::uint8_t> bytes = reframe(kind, payload);
    std::optional<Frame> decoded;
    try {
      decoded = decode_frame(bytes.data(), bytes.size()).frame;
    } catch (const std::runtime_error&) {
    }
    std::string wrong;
    if (checked != strict) wrong += " check!=strict";
    if (decoded.has_value() != checked) wrong += " decode!=check";
    if (decoded && encode_frame(*decoded) != bytes) wrong += " not canonical";
    if (!wrong.empty() && ++disagreements <= 5)
      first += "\n  " + std::string(to_string(kind)) + " " + what + ":" + wrong;
    ++(checked ? accepted : rejected);
  }
};

TEST(ProtocolFuzz, PayloadMutationsKeepOneCanonicalVerdict) {
  Rng rng(0x0ca7'0f1e);
  VerdictTally tally;
  for (const Frame& frame : sample_frames()) {
    const FrameKind kind = frame_kind(frame);
    const std::vector<std::uint8_t> encoded = encode_frame(frame);
    const std::vector<std::uint8_t> good(encoded.begin() + kFrameHeaderSize,
                                         encoded.end());
    tally.check(kind, good, "as encoded");
    // Every truncation, and trailing bytes past the end.
    for (std::size_t cut = 0; cut < good.size(); ++cut) {
      const std::vector<std::uint8_t> shorter(good.begin(), good.begin() + cut);
      tally.check(kind, shorter, "cut at " + std::to_string(cut));
    }
    for (std::size_t extra = 1; extra <= 8; ++extra) {
      std::vector<std::uint8_t> longer = good;
      longer.resize(good.size() + extra, 0);
      tally.check(kind, longer, "plus " + std::to_string(extra));
    }
    // Every other value of every byte: tags, the degraded byte and every
    // byte of every count and length word among them.
    for (std::size_t at = 0; at < good.size(); ++at) {
      for (unsigned v = 0; v < 256; ++v) {
        if (v == good[at]) continue;
        std::vector<std::uint8_t> bytes = good;
        bytes[at] = static_cast<std::uint8_t>(v);
        tally.check(kind, bytes,
                    "byte " + std::to_string(at) + " = " + std::to_string(v));
      }
    }
    // Count and length lies up to 2^40, written as a whole word at every
    // offset, so each count and string-length word gets all of them.
    std::vector<std::uint64_t> lies = {0, 1, 2, 3, 255, 1ull << 16,
                                       1ull << 32, (1ull << 40) - 1,
                                       1ull << 40};
    for (int i = 0; i < 8; ++i)
      lies.push_back(static_cast<std::uint64_t>(rng.uniform_int(0, 1ll << 40)));
    for (std::size_t at = 0; at + 8 <= good.size(); ++at) {
      const std::uint64_t word = wire::load_u64(good.data() + at);
      std::vector<std::uint64_t> here = lies;
      here.push_back(word - 1);
      here.push_back(word + 1);
      for (const std::uint64_t lie : here) {
        std::vector<std::uint8_t> bytes = good;
        wire::store_u64(bytes.data() + at, lie);
        tally.check(kind, bytes, "word at " + std::to_string(at) + " = " +
                                     std::to_string(lie));
      }
    }
  }
  EXPECT_EQ(tally.disagreements, 0u) << tally.first;
  // Both verdicts are exercised: free fields take any value, structural
  // ones almost none.
  EXPECT_GT(tally.accepted, 10000u);
  EXPECT_GT(tally.rejected, 10000u);
}

TEST(ProtocolFuzz, RandomGarbageNeverDecodesPartially) {
  Rng rng(0xbadc'0de5);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto size =
        static_cast<std::size_t>(rng.uniform_int(0, 96));
    std::vector<std::uint8_t> bytes(size);
    for (auto& b : bytes)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    expect_decode_total(bytes.data(), bytes.size());
  }
}

// -------------------------------------------------------------- IoFaultPlan

TEST(IoFaultPlan, SameSeedSameScheduleAnyQueryOrder) {
  IoFaultSpec spec;
  spec.disconnect_rate = 0.1;
  spec.corrupt_rate = 0.1;
  spec.partial_write_rate = 0.2;
  spec.fsync_stall_rate = 0.15;
  const IoFaultPlan a = IoFaultPlan::generate(spec, 42);
  const IoFaultPlan b = IoFaultPlan::generate(spec, 42);
  const IoFaultPlan c = IoFaultPlan::generate(spec, 43);

  bool any_fault = false, differs = false;
  for (std::uint64_t collector = 0; collector < 4; ++collector) {
    for (std::uint64_t m = 0; m < 200; ++m) {
      EXPECT_EQ(a.disconnect_after(collector, m),
                b.disconnect_after(collector, m));
      EXPECT_EQ(a.corrupt_message(collector, m),
                b.corrupt_message(collector, m));
      EXPECT_EQ(a.split_write(collector, m), b.split_write(collector, m));
      EXPECT_EQ(a.corrupt_byte(collector, m, 64),
                b.corrupt_byte(collector, m, 64));
      any_fault = any_fault || a.disconnect_after(collector, m) ||
                  a.corrupt_message(collector, m);
      differs = differs || (a.disconnect_after(collector, m) !=
                            c.disconnect_after(collector, m));
    }
  }
  for (std::uint64_t append = 0; append < 400; ++append)
    EXPECT_EQ(a.fsync_stall(append), b.fsync_stall(append));
  EXPECT_TRUE(any_fault);
  EXPECT_TRUE(differs);  // a different seed is a different schedule
}

TEST(IoFaultPlan, RatesApproximateProbabilities) {
  IoFaultSpec spec;
  spec.disconnect_rate = 0.3;
  const IoFaultPlan plan = IoFaultPlan::generate(spec, 7);
  std::size_t hits = 0;
  const std::size_t trials = 20000;
  for (std::uint64_t m = 0; m < trials; ++m)
    if (plan.disconnect_after(0, m)) ++hits;
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.03);
}

TEST(IoFaultPlan, ValidatedClampsHostileKnobs) {
  IoFaultSpec hostile;
  hostile.disconnect_rate = 3.5;
  hostile.corrupt_rate = -1.0;
  hostile.fsync_stall_seconds = -4.0;
  hostile.fsync_stall_appends = 0;
  const IoFaultSpec sane = hostile.validated();
  EXPECT_LE(sane.disconnect_rate, 1.0);
  EXPECT_GE(sane.corrupt_rate, 0.0);
  EXPECT_GE(sane.fsync_stall_seconds, 0.0);
  EXPECT_GE(sane.fsync_stall_appends, 1u);
}

TEST(IoFaultPlan, ScriptedFaultsOnAnEmptyPlan) {
  IoFaultPlan plan;  // clean pipes
  EXPECT_FALSE(plan.disconnect_after(0, 5));
  EXPECT_EQ(plan.fsync_stall(3), 0.0);

  plan.force_disconnect(1, 7);
  plan.force_corrupt(0, 2);
  plan.force_stall_window(10, 4, 0.25);

  EXPECT_TRUE(plan.disconnect_after(1, 7));
  EXPECT_FALSE(plan.disconnect_after(1, 8));
  EXPECT_FALSE(plan.disconnect_after(0, 7));
  EXPECT_TRUE(plan.corrupt_message(0, 2));
  EXPECT_FALSE(plan.corrupt_message(0, 3));
  EXPECT_EQ(plan.fsync_stall(9), 0.0);
  for (std::uint64_t append = 10; append < 14; ++append)
    EXPECT_EQ(plan.fsync_stall(append), 0.25) << "append " << append;
  EXPECT_EQ(plan.fsync_stall(14), 0.0);
}

TEST(IoFaultPlan, SplitPointsStayInteriorAndCorruptBytesInRange) {
  IoFaultSpec spec;
  spec.partial_write_rate = 1.0;
  spec.corrupt_rate = 1.0;
  const IoFaultPlan plan = IoFaultPlan::generate(spec, 3);
  for (std::uint64_t m = 0; m < 500; ++m) {
    const std::size_t split = plan.split_point(0, m, 40);
    EXPECT_GE(split, 1u);
    EXPECT_LE(split, 39u);
    EXPECT_LT(plan.corrupt_byte(0, m, 40), 40u);
  }
}

// -------------------------------------------------- WAL I/O hooks hardening

/// Hooks that stress the append retry path: every write is short (at most
/// 3 bytes) and every other call is interrupted first.
class FlakyWalHooks : public WalIoHooks {
 public:
  long write_some(int fd, const std::uint8_t* data,
                  std::size_t size) override {
    if (++calls_ % 2 == 0) {
      errno = EINTR;
      return -1;
    }
    return WalIoHooks::write_some(fd, data, std::min<std::size_t>(size, 3));
  }

 private:
  std::uint64_t calls_ = 0;
};

/// Hooks that hard-fail every write after the first `allowed` calls.
class FailingWalHooks : public WalIoHooks {
 public:
  explicit FailingWalHooks(std::uint64_t allowed) : allowed_(allowed) {}
  long write_some(int fd, const std::uint8_t* data,
                  std::size_t size) override {
    if (calls_++ >= allowed_) {
      errno = EIO;
      return -1;
    }
    return WalIoHooks::write_some(fd, data, size);
  }

 private:
  std::uint64_t allowed_ = 0;
  std::uint64_t calls_ = 0;
};

TEST(WalIoHooks, ShortWritesAndEintrStillProduceAnIntactLog) {
  const std::string dir = temp_dir("vmcw_ingest_flaky");
  const std::string path = dir + "/flaky.wal";
  const auto frames = sample_frames();

  FlakyWalHooks hooks;
  FrameLog log;
  log.set_io_hooks(&hooks);
  log.open(path, fleet_config_hash(ControllerConfig{}), /*resume=*/false);
  for (const Frame& frame : frames) log.append(frame, /*sync=*/false);
  log.sync();
  log.close();

  const WalContents contents = read_frame_log(path);
  EXPECT_FALSE(contents.torn_tail);
  EXPECT_EQ(contents.frames, frames);
}

TEST(WalIoHooks, EncodedRunSplitsAtSegmentsLikePerFrameAppends) {
  const std::string dir = temp_dir("vmcw_ingest_runsplit");
  const auto frames = sample_frames();
  ASSERT_EQ(frames.size(), 10u);
  // Three records per segment: the run crosses every rotation of a
  // 3 + 3 + 3 + 1 chain.
  const auto write_chain = [&](const std::string& path, bool as_run,
                               WalIoHooks* hooks) {
    SegmentedFrameLog log;
    log.set_io_hooks(hooks);
    log.open(path, fleet_config_hash(ControllerConfig{}), /*resume=*/false,
             /*segment_frames=*/3);
    if (as_run) {
      EncodedRun run;
      for (const Frame& frame : frames) run.add(frame);
      EXPECT_TRUE(log.append(run));
    } else {
      for (const Frame& frame : frames)
        EXPECT_TRUE(log.append(frame, /*sync=*/false));
    }
    EXPECT_TRUE(log.sync());
    log.close();
  };
  const std::string per_frame = dir + "/frames.wal";
  const std::string run = dir + "/run.wal";
  const std::string flaky = dir + "/flaky.wal";
  write_chain(per_frame, /*as_run=*/false, nullptr);
  write_chain(run, /*as_run=*/true, nullptr);
  FlakyWalHooks hooks;
  write_chain(flaky, /*as_run=*/true, &hooks);

  for (std::size_t i = 1; i <= 4; ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(fs::exists(segment_path(per_frame, i)));
    EXPECT_EQ(file_bytes(segment_path(run, i)),
              file_bytes(segment_path(per_frame, i)));
    EXPECT_EQ(file_bytes(segment_path(flaky, i)),
              file_bytes(segment_path(per_frame, i)));
  }
  EXPECT_FALSE(fs::exists(segment_path(run, 5)));
  for (const std::string& path : {run, flaky}) {
    const WalContents wal = read_segmented_wal(path);
    EXPECT_FALSE(wal.torn_tail);
    EXPECT_EQ(wal.frames, frames);
  }
}

TEST(WalIoHooks, HardWriteErrorClosesTheLogInsteadOfTearingIt) {
  const std::string dir = temp_dir("vmcw_ingest_eio");
  const std::string path = dir + "/eio.wal";

  // Enough budget for one frame (the header write predates the hooks'
  // surface — open() is not an append), then the disk "dies".
  FailingWalHooks hooks(/*allowed=*/1);
  FrameLog log;
  log.set_io_hooks(&hooks);
  log.open(path, fleet_config_hash(ControllerConfig{}), /*resume=*/false);
  log.append(HeartbeatFrame{1});
  EXPECT_TRUE(log.is_open());
  log.append(HeartbeatFrame{2});  // hits the injected EIO
  EXPECT_FALSE(log.is_open());
  log.append(HeartbeatFrame{3});  // no-op on a closed log, not a crash

  // Whatever is on disk is intact: no partial interleave from the failed
  // append.
  const WalContents contents = read_frame_log(path);
  EXPECT_FALSE(contents.torn_tail);
  EXPECT_EQ(contents.frames, std::vector<Frame>{Frame{HeartbeatFrame{1}}});
}

TEST(WalIoHooks, InjectedStallIsMeasuredAndRecordedToMetrics) {
  const std::string dir = temp_dir("vmcw_ingest_stallmeter");
  const std::string path = dir + "/stall.wal";

  IoFaultPlan plan;
  plan.force_stall_window(/*first_append=*/0, /*appends=*/100, 0.123);
  StallingWalHooks hooks(plan);

  MetricsRegistry::global().clear();
  FrameLog log;
  log.set_io_hooks(&hooks);
  log.open(path, fleet_config_hash(ControllerConfig{}), /*resume=*/false);
  EXPECT_EQ(log.last_sync_seconds(), 0.0);
  log.append(HeartbeatFrame{1}, /*sync=*/true);
  EXPECT_NEAR(log.last_sync_seconds(), 0.123, 1e-9);
  log.close();

  const auto hist =
      MetricsRegistry::global().histogram("service.wal_fsync_seconds");
  ASSERT_GE(hist.count, 1u);
  EXPECT_NEAR(hist.max, 0.123, 1e-9);
  EXPECT_GE(hooks.syncs(), 1u);
}

// ----------------------------------------------------------- partitioning

TEST(PartitionStream, RoutesDeterministicallyAndTerminatesEachPartition) {
  const auto frames = small_churn();
  const std::size_t collectors = 3, agents = 4;
  const auto parts = partition_stream(frames, collectors, agents);
  ASSERT_EQ(parts.size(), collectors);

  std::size_t kept = 0, originals = 0;
  for (const Frame& frame : frames)
    if (!std::holds_alternative<HelloFrame>(frame) &&
        !std::holds_alternative<ShutdownFrame>(frame))
      ++originals;

  for (std::size_t i = 0; i < collectors; ++i) {
    const auto& part = parts[i];
    ASSERT_FALSE(part.empty());
    // Exactly one Shutdown, at the end; no Hellos (sessions bring their
    // own handshake).
    EXPECT_TRUE(std::holds_alternative<ShutdownFrame>(part.back()));
    for (std::size_t k = 0; k + 1 < part.size(); ++k) {
      EXPECT_FALSE(std::holds_alternative<ShutdownFrame>(part[k]));
      EXPECT_FALSE(std::holds_alternative<HelloFrame>(part[k]));
      ++kept;
      // Routing is a pure function of the frame.
      if (const auto* t = std::get_if<HostTelemetryDeltaFrame>(&part[k])) {
        EXPECT_EQ(t->agent % collectors, i);
      }
      if (const auto* a = std::get_if<VmArrivalFrame>(&part[k])) {
        EXPECT_EQ((a->vm % agents) % collectors, i);
      }
      if (const auto* d = std::get_if<VmDepartureFrame>(&part[k])) {
        EXPECT_EQ((d->vm % agents) % collectors, i);
      }
    }
  }
  EXPECT_EQ(kept, originals);  // nothing lost, nothing duplicated
}

// ------------------------------------------------- end-to-end over sockets

struct ServeResult {
  IngestStats ingest;
  DaemonStats daemon;
  std::vector<CollectorStats> collectors;
};

/// Run one daemon + IngestServer on a Unix socket and N in-process
/// collector clients (each on its partition of `frames`), to completion.
ServeResult serve_churn(const std::string& dir,
                        const std::vector<Frame>& frames,
                        std::size_t collectors, std::size_t agents,
                        const IoFaultPlan* plan,
                        WalIoHooks* wal_hooks = nullptr,
                        IngestOptions options = {}) {
  Daemon::Options daemon_options;
  daemon_options.wal_path = dir + "/live.wal";
  daemon_options.decisions_path = dir + "/live.decisions";
  daemon_options.durable = true;
  Daemon daemon(ControllerConfig{}, daemon_options);
  if (wal_hooks != nullptr) daemon.set_io_hooks(wal_hooks);
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
      copts.fleet_hash = fleet_config_hash(ControllerConfig{});
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

/// The serve-mode determinism contract: the WAL the run produced replays
/// to the live decision bytes, at 1, 2 and 8 worker threads.
void expect_replay_identity(const std::string& dir) {
  const std::string live = file_bytes(dir + "/live.decisions");
  ASSERT_FALSE(live.empty());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::string replayed =
        dir + "/replay_t" + std::to_string(threads);
    ThreadPool pool(threads);
    ScopedPoolOverride scope(pool);
    replay_wal(dir + "/live.wal", replayed, ControllerConfig{},
               /*resume=*/false, /*durable=*/false);
    EXPECT_EQ(file_bytes(replayed), live) << "at " << threads << " threads";
  }
}

TEST(IngestServer, CleanMultiCollectorRunReplaysByteIdentical) {
  const std::string dir = temp_dir("vmcw_ingest_clean");
  const auto frames = small_churn();
  const auto result =
      serve_churn(dir, frames, /*collectors=*/3, /*agents=*/4,
                  /*plan=*/nullptr);

  std::size_t expected = 0;
  for (const auto& part : partition_stream(frames, 3, 4))
    expected += part.size();
  EXPECT_EQ(result.ingest.messages_ingested, expected);
  EXPECT_GE(result.ingest.connections_accepted, 3u);
  EXPECT_EQ(result.ingest.corrupt_frames, 0u);
  EXPECT_EQ(result.ingest.shutdowns_seen, 3u);
  EXPECT_GT(result.daemon.batches, 0u);
  expect_replay_identity(dir);
}

TEST(IngestServer, ChaosDisconnectsAndCorruptionStayExactlyOnce) {
  const std::string dir = temp_dir("vmcw_ingest_chaos");
  const auto frames = small_churn();

  IoFaultSpec spec;
  spec.disconnect_rate = 0.06;
  spec.corrupt_rate = 0.04;
  spec.partial_write_rate = 0.10;
  const IoFaultPlan plan = IoFaultPlan::generate(spec, 9);
  const auto result =
      serve_churn(dir, frames, /*collectors=*/3, /*agents=*/4, &plan);

  // Every partition frame landed in the WAL exactly once, despite every
  // retransmission and quarantine along the way.
  std::size_t expected = 0;
  for (const auto& part : partition_stream(frames, 3, 4))
    expected += part.size();
  EXPECT_EQ(result.ingest.messages_ingested, expected);
  EXPECT_EQ(result.ingest.shutdowns_seen, 3u);

  std::size_t faults = 0, reconnects = 0;
  for (const auto& stats : result.collectors) {
    faults += stats.faults_injected;
    reconnects += stats.reconnects;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_GT(reconnects, 0u);
  EXPECT_GT(result.ingest.connections_accepted, 3u);

  const WalContents wal = read_frame_log(dir + "/live.wal");
  EXPECT_EQ(wal.frames.size(), expected);
  expect_replay_identity(dir);
}

TEST(IngestServer, WalStallShedsToHeartbeatOnlyAndRecovers) {
  const std::string dir = temp_dir("vmcw_ingest_shed");
  const auto frames = small_churn();

  // Healthy disk for a few appends, then a stall window far above the
  // shed watermark. The shed-mode probes (fsyncs without appends) advance
  // through the window, so recovery needs no cooperating traffic.
  IoFaultPlan plan;
  plan.force_stall_window(/*first_append=*/6, /*appends=*/20, 0.2);
  StallingWalHooks hooks(plan);

  IngestOptions options;
  options.shed_fsync_seconds = 0.050;
  options.recover_fsync_seconds = 0.010;
  // One frame per WAL batch: the stall plan indexes fsyncs, and this test
  // pins the per-append shed/recover cycle (batch-boundary shedding is the
  // recovery suite's concern).
  options.max_batch_frames = 1;
  const auto result = serve_churn(dir, frames, /*collectors=*/1,
                                  /*agents=*/4, /*plan=*/nullptr, &hooks,
                                  options);

  // Shedding engaged, data was refused while it lasted, and the collector
  // saw typed kShedding rejects (not drops, not fabricated acks).
  EXPECT_GE(result.ingest.shed_entries, 1u);
  EXPECT_GE(result.ingest.shed_rejects, 1u);
  EXPECT_GE(result.collectors[0].shed_backoffs, 1u);
  // ...and it recovered: the whole stream is durable.
  const auto parts = partition_stream(frames, 1, 4);
  EXPECT_EQ(result.ingest.messages_ingested, parts[0].size());
  // One collector delivers in order; acked == appended, so the WAL is the
  // partition, exactly — shedding never dropped an acked frame.
  const WalContents wal = read_frame_log(dir + "/live.wal");
  EXPECT_EQ(wal.frames, parts[0]);
  expect_replay_identity(dir);
}

TEST(IngestServer, BadHelloIsAFatalReject) {
  const std::string dir = temp_dir("vmcw_ingest_badhello");

  Daemon::Options daemon_options;
  daemon_options.wal_path = dir + "/live.wal";
  daemon_options.decisions_path = dir + "/live.decisions";
  Daemon daemon(ControllerConfig{}, daemon_options);
  const auto opened = daemon.open();

  IngestOptions options;
  options.unix_path = dir + "/ingest.sock";
  options.expected_shutdowns = 0;  // serve until stop()
  IngestServer server(daemon, options);
  server.start(opened.wal_frames);

  CollectorOptions copts;
  copts.unix_path = options.unix_path;
  copts.fleet_hash = 0xdeadbeef;  // not this fleet
  CollectorClient client(copts);
  EXPECT_THROW(client.run({Frame{HeartbeatFrame{1}}}), std::runtime_error);

  server.stop();
  server.wait();
  daemon.close();
  EXPECT_GE(server.stats().rejects_sent, 1u);
  EXPECT_EQ(server.stats().messages_ingested, 0u);
}

TEST(IngestServer, ConnectToAFullBacklogSpendsTheRetryBudget) {
  // A listener that never accepts, its backlog of 0 taken by one raw
  // connect: each further connect finds the queue full. The client must
  // count those as failed attempts and give up; a connect that blocked in
  // the kernel instead would never return, so the client runs in a forked
  // child that is killed after a bounded wait.
  const std::string dir = temp_dir("vmcw_ingest_fullbacklog");
  const std::string path = dir + "/full.sock";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const auto* sa = reinterpret_cast<const sockaddr*>(&addr);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  ASSERT_EQ(::bind(listener, sa, sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 0), 0);
  const int filler = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_EQ(::connect(filler, sa, sizeof(addr)), 0);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    CollectorOptions copts;
    copts.unix_path = path;
    copts.max_attempts = 3;
    CollectorClient client(copts);
    try {
      client.run({Frame{HeartbeatFrame{1}}});
    } catch (const std::runtime_error&) {
      ::_exit(0);  // retry budget exhausted
    }
    ::_exit(1);
  }
  int status = 0;
  pid_t done = 0;
  for (int waited_ms = 0; waited_ms < 5000 && done == 0; waited_ms += 10) {
    done = ::waitpid(child, &status, WNOHANG);
    if (done == 0) ::usleep(10000);
  }
  if (done == 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, &status, 0);
  }
  ::close(filler);
  ::close(listener);
  EXPECT_EQ(done, child) << "collector still blocked in connect after 5 s";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// ------------------------------------------------- durability fail-stop

/// Hooks that fail the `nth` write, or the `nth` sync, of the telemetry
/// WAL and pass everything else through. The WAL's descriptor is the one
/// its frames are written to: every decision-log append is a whole
/// DecisionBatch record, which no collector may send. Each successful WAL
/// sync records the file size it made durable.
class WalFaultHooks : public WalIoHooks {
 public:
  enum class Fault { kWrite, kSync };
  WalFaultHooks(Fault fault, std::uint64_t nth) : fault_(fault), nth_(nth) {}

  long write_some(int fd, const std::uint8_t* data,
                  std::size_t size) override {
    if (data[0] != static_cast<std::uint8_t>(FrameKind::kDecisionBatch))
      wal_fd_ = fd;
    if (fd == wal_fd_ && fault_ == Fault::kWrite && ++writes_ == nth_) {
      errno = EIO;
      return -1;
    }
    return WalIoHooks::write_some(fd, data, size);
  }
  int sync(int fd) override {
    if (fd != wal_fd_) return WalIoHooks::sync(fd);
    if (fault_ == Fault::kSync && ++syncs_ == nth_) {
      errno = EIO;
      return -1;
    }
    const int rc = WalIoHooks::sync(fd);
    struct stat st {};
    if (rc == 0 && ::fstat(fd, &st) == 0)
      durable_bytes_ = static_cast<std::size_t>(st.st_size);
    return rc;
  }

  std::size_t durable_bytes() const noexcept { return durable_bytes_; }

 private:
  Fault fault_;
  std::uint64_t nth_;
  int wal_fd_ = -1;
  std::uint64_t writes_ = 0;
  std::uint64_t syncs_ = 0;
  std::size_t durable_bytes_ = 0;
};

/// One raw ingest session with no retries: a Hello, then `frames` as seq
/// 1..n in a single send — or, with `split_message` set, in two sends that
/// part inside that message's envelope — then every response until the
/// server closes the connection. Returns the seqs of every Ack received,
/// in arrival order (the Hello's Ack first).
std::vector<std::uint64_t> raw_session(
    const std::string& socket_path, const std::vector<Frame>& frames,
    std::optional<std::size_t> split_message = std::nullopt) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::vector<std::uint8_t> out;
  const auto envelope = [&out](std::uint64_t seq, const Frame& frame) {
    wire::ByteWriter w;
    w.u64(seq);
    out.insert(out.end(), w.bytes().begin(), w.bytes().end());
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    out.insert(out.end(), bytes.begin(), bytes.end());
  };
  envelope(0, HelloFrame{kProtocolVersion,
                         fleet_config_hash(ControllerConfig{}), "raw"});
  std::size_t split = out.size();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    envelope(i + 1, frames[i]);
    if (split_message == i) split = out.size() - 5;
  }
  const auto send_range = [&](std::size_t off, std::size_t end) {
    while (off < end) {
      const ssize_t n = ::send(fd, out.data() + off, end - off, MSG_NOSIGNAL);
      if (n <= 0) return;  // the server stopped reading; it may be failing
      off += static_cast<std::size_t>(n);
    }
  };
  send_range(0, split);
  if (split < out.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    send_range(split, out.size());
  }

  std::vector<std::uint8_t> in;
  std::uint8_t buf[4096];
  pollfd pfd{fd, POLLIN, 0};
  while (::poll(&pfd, 1, 10000) > 0) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;  // closed: the serve run is over
    in.insert(in.end(), buf, buf + n);
  }
  ::close(fd);
  std::vector<std::uint64_t> acks;
  for (std::size_t at = 0; at < in.size();) {
    const DecodedFrame d = decode_frame(in.data() + at, in.size() - at);
    if (const auto* ack = std::get_if<AckFrame>(&d.frame))
      acks.push_back(ack->seq);
    at += d.consumed;
  }
  return acks;
}

TEST(IngestServer, DurabilityFailureStopsAcksAndRestartEqualsReplay) {
  const auto frames = partition_stream(small_churn(), 1, 4)[0];
  ASSERT_GT(frames.size(), 60u);
  const struct {
    const char* name;
    WalFaultHooks::Fault fault;
    std::uint64_t nth;
  } cases[] = {
      {"eio_write", WalFaultHooks::Fault::kWrite, 4},
      {"failed_sync", WalFaultHooks::Fault::kSync, 4},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir =
        temp_dir((std::string("vmcw_ingest_failstop_") + c.name).c_str());
    Daemon::Options daemon_options;
    daemon_options.wal_path = dir + "/live.wal";
    daemon_options.decisions_path = dir + "/live.decisions";
    WalFaultHooks hooks(c.fault, c.nth);
    {
      Daemon daemon(ControllerConfig{}, daemon_options);
      daemon.set_io_hooks(&hooks);
      const auto opened = daemon.open();
      IngestOptions options;
      options.unix_path = dir + "/ingest.sock";
      options.max_batch_frames = 8;  // several syncs before the fault
      IngestServer server(daemon, options);
      server.start(opened.wal_frames);
      const std::vector<std::uint64_t> acks =
          raw_session(options.unix_path, frames);
      const std::uint64_t acked =
          acks.empty() ? 0 : *std::max_element(acks.begin(), acks.end());
      server.wait();
      EXPECT_TRUE(server.failed());
      daemon.close();

      // No Ack passes the last frame durable in the WAL.
      const std::string durable = dir + "/durable.wal";
      fs::copy_file(daemon_options.wal_path, durable);
      fs::resize_file(durable, hooks.durable_bytes());
      const WalContents wal = read_frame_log(durable);
      EXPECT_GT(acked, 0u);
      EXPECT_LT(acked, frames.size());
      EXPECT_LE(acked, wal.frames.size());
      EXPECT_EQ(wal.frames,
                std::vector<Frame>(frames.begin(),
                                   frames.begin() + static_cast<std::ptrdiff_t>(
                                                        wal.frames.size())));
    }

    // A restarted daemon recovers from the WAL, and its decision log is
    // what a cold replay of that WAL writes.
    daemon_options.resume = true;
    Daemon restarted(ControllerConfig{}, daemon_options);
    restarted.open();
    EXPECT_TRUE(restarted.close());
    replay_wal(daemon_options.wal_path, dir + "/replay.decisions",
               ControllerConfig{}, /*resume=*/false, /*durable=*/false);
    EXPECT_EQ(file_bytes(daemon_options.decisions_path),
              file_bytes(dir + "/replay.decisions"));
  }
}

TEST(IngestServer, OffsetDrainUnderBackpressureAcksEveryMessageOnce) {
  const std::string dir = temp_dir("vmcw_ingest_backpressure");
  ChurnOptions churn;
  churn.agents = 4;
  churn.initial_vms = 24;
  churn.ticks = 160;
  churn.arrivals_per_tick = 1.5;
  churn.departure_prob = 0.05;
  churn.seed = 13;
  const auto frames =
      partition_stream(generate_churn(churn, ControllerConfig{}), 1, 4)[0];
  ASSERT_GE(frames.size(), 1000u);

  // Two queue slots against a burst of every envelope at once: the poll
  // thread stalls on nearly every message, and one envelope arrives torn
  // across two sends.
  Daemon::Options daemon_options;
  daemon_options.wal_path = dir + "/live.wal";
  daemon_options.decisions_path = dir + "/live.decisions";
  daemon_options.durable = false;
  IngestStats stats;
  {
    Daemon daemon(ControllerConfig{}, daemon_options);
    const auto opened = daemon.open();
    IngestOptions options;
    options.unix_path = dir + "/ingest.sock";
    options.queue_capacity = 2;
    IngestServer server(daemon, options);
    server.start(opened.wal_frames);
    const std::vector<std::uint64_t> acks =
        raw_session(options.unix_path, frames, frames.size() / 2);
    server.wait();
    EXPECT_FALSE(server.failed());
    daemon.close();
    stats = server.stats();

    // The Hello's Ack, then exactly one Ack per message, in order.
    ASSERT_EQ(acks.size(), frames.size() + 1);
    for (std::size_t i = 0; i < acks.size(); ++i) EXPECT_EQ(acks[i], i);
  }
  EXPECT_GT(stats.backpressure_stalls, 0u);
  EXPECT_EQ(stats.messages_ingested, frames.size());
  EXPECT_EQ(stats.rejects_sent, 0u);
  EXPECT_EQ(stats.corrupt_frames, 0u);

  // The WAL and the decision log are a direct Daemon feed's, byte for byte.
  Daemon::Options direct_options;
  direct_options.wal_path = dir + "/direct.wal";
  direct_options.decisions_path = dir + "/direct.decisions";
  direct_options.durable = false;
  Daemon direct(ControllerConfig{}, direct_options);
  direct.open();
  for (const Frame& frame : frames) direct.ingest(frame);
  direct.close();
  EXPECT_EQ(file_bytes(daemon_options.wal_path),
            file_bytes(direct_options.wal_path));
  EXPECT_EQ(file_bytes(daemon_options.decisions_path),
            file_bytes(direct_options.decisions_path));
}

TEST(IngestServer, CrashResumeDedupesAlreadyDurableFrames) {
  const std::string dir = temp_dir("vmcw_ingest_resume");
  const auto frames = small_churn();
  const auto parts = partition_stream(frames, 1, 4);
  const std::vector<Frame>& stream = parts[0];
  const std::size_t half = stream.size() / 2;
  const std::vector<Frame> prefix(stream.begin(),
                                  stream.begin() + half);

  const auto serve_once = [&](bool resume,
                              const std::vector<Frame>& to_send,
                              std::size_t expected_shutdowns,
                              const std::string& wal) {
    Daemon::Options daemon_options;
    daemon_options.wal_path = wal;
    daemon_options.decisions_path = wal + ".decisions";
    daemon_options.resume = resume;
    Daemon daemon(ControllerConfig{}, daemon_options);
    const auto opened = daemon.open();

    IngestOptions options;
    options.unix_path = dir + "/ingest.sock";
    options.expected_shutdowns = expected_shutdowns;
    IngestServer server(daemon, options);
    server.start(opened.wal_frames);

    CollectorOptions copts;
    copts.unix_path = options.unix_path;
    copts.fleet_hash = fleet_config_hash(ControllerConfig{});
    CollectorClient client(copts);
    client.run(to_send);
    if (expected_shutdowns == 0) server.stop();
    server.wait();
    daemon.close();
    return server.stats();
  };

  // Phase 1: deliver the first half (no Shutdown yet), then the daemon
  // "crashes" — the server goes away with the WAL durable.
  const std::string wal = dir + "/resumed.wal";
  serve_once(/*resume=*/false, prefix, /*expected_shutdowns=*/0, wal);
  EXPECT_EQ(read_frame_log(wal).frames.size(), prefix.size());

  // Phase 2: the daemon restarts with --resume; the collector (which
  // never saw acks persist) resends the whole stream from scratch. The
  // dedup filter turns the first half into acks without re-appending.
  const IngestStats second =
      serve_once(/*resume=*/true, stream, /*expected_shutdowns=*/1, wal);
  EXPECT_EQ(second.duplicates_dropped, prefix.size());
  EXPECT_EQ(second.messages_ingested, stream.size() - prefix.size());

  // The resumed WAL is byte-identical to an uninterrupted delivery.
  const std::string uwal = dir + "/uninterrupted.wal";
  serve_once(/*resume=*/false, stream, /*expected_shutdowns=*/1, uwal);
  EXPECT_EQ(file_bytes(wal), file_bytes(uwal));
  EXPECT_EQ(file_bytes(wal + ".decisions"),
            file_bytes(uwal + ".decisions"));
}

}  // namespace
}  // namespace vmcw::service
