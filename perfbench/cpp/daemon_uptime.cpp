// daemon_uptime: the long-running controller and its restart path.
//
// A churn stream with a steady ~2k residents (100 arrivals per tick, 5%
// departures) is fed frame by frame through Daemon::ingest, with WAL
// segment rotation and frame-cadence snapshots. The logs are non-durable,
// so fdatasync is bypassed (snapshots still sync; ingest_socket measures
// the WAL's fsync). After the feed the daemon is closed and reopened with
// resume several times.
//
//   decide_p50_ms  median Daemon::ingest time of a Flush frame (tick +
//                  decision append)
//   second_p50_ms  median Daemon::open(resume) time
//
// Checks: every restart's controller save_state bytes equal the live
// controller's, and the live decision log is byte-equal to replay_wal over
// the retained segment chain.
//
// The traced run drives the same stream through the layers directly —
// FrameLog appends, IncrementalController apply/tick, save_state +
// write_snapshot at the same cadence — then the restart path piece by
// piece (read both logs, read the snapshot, restore_state).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <variant>
#include <vector>

#include "harness.h"
#include "runtime/thread_pool.h"
#include "runtime/wire.h"
#include "service/churn.h"
#include "service/daemon.h"
#include "service/snapshot.h"
#include "service/telemetry_log.h"

namespace perfbench {

using namespace vmcw;
using namespace vmcw::service;

namespace {

constexpr std::size_t kTicks = 400;
constexpr std::uint64_t kSegmentFrames = 16384;
constexpr std::uint64_t kSnapshotEveryFrames = 8192;
constexpr int kRestarts = 5;
constexpr int kSetupRepeats = 7;
/// Nominal wall time of one feed + restarts on the reference box; fixes
/// how many repetitions fill --seconds (a constant, never measured).
constexpr double kNominalRepSeconds = 6.0;

ChurnOptions churn_options(std::uint64_t seed) {
  ChurnOptions churn;
  churn.agents = 32;
  churn.initial_vms = 2000;
  churn.ticks = kTicks;
  churn.apps = 12;
  churn.arrivals_per_tick = 100;
  churn.departure_prob = 0.05;
  churn.seed = seed;
  return churn;
}

Daemon::Options daemon_options(const std::string& dir, bool resume) {
  Daemon::Options options;
  options.wal_path = dir + "/live.wal";
  options.decisions_path = dir + "/live.decisions";
  options.resume = resume;
  options.durable = false;
  options.segment_frames = kSegmentFrames;
  options.snapshot_path = dir + "/ctrl.snap";
  options.snapshot_every_frames = kSnapshotEveryFrames;
  options.retain_segments = true;  // replay_wal needs the whole chain
  return options;
}

std::vector<std::uint8_t> state_of(const IncrementalController& controller) {
  wire::ByteWriter w;
  controller.save_state(w);
  return w.bytes();
}

/// One feed of the whole stream plus kRestarts timed reopenings.
struct Rep {
  std::vector<double> tick_ms;
  std::vector<double> restart_ms;
  std::vector<std::uint8_t> live_state;
  DaemonStats stats;
  std::size_t suffix_frames = 0;
};

Rep feed_and_restart(const std::vector<Frame>& frames,
                     const ControllerConfig& config, const std::string& dir,
                     Result& result) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Rep rep;
  {
    Daemon daemon(config, daemon_options(dir, /*resume=*/false));
    daemon.open();
    for (const Frame& frame : frames) {
      if (std::holds_alternative<FlushFrame>(frame)) {
        const double t = now();
        daemon.ingest(frame);
        rep.tick_ms.push_back((now() - t) * 1e3);
      } else {
        daemon.ingest(frame);
      }
      daemon.maybe_snapshot();
    }
    rep.live_state = state_of(daemon.controller());
    rep.stats = daemon.stats();
    daemon.close();
  }
  for (int i = 0; i < kRestarts; ++i) {
    ++result.attempted;
    try {
      Daemon daemon(config, daemon_options(dir, /*resume=*/true));
      const double t = now();
      const Daemon::OpenResult opened = daemon.open();
      rep.restart_ms.push_back((now() - t) * 1e3);
      rep.suffix_frames = opened.frames_recovered;
      if (!opened.snapshot_loaded || state_of(daemon.controller()) != rep.live_state) {
        ++result.failed;
        std::printf("restart %d diverged from the live controller\n", i);
      }
      daemon.close();
    } catch (const std::exception& e) {
      ++result.failed;
      std::printf("restart %d threw: %s\n", i, e.what());
    }
  }
  return rep;
}

/// The same stream through the layers directly, each call in a span.
/// Writes the same WAL chain, decision log and snapshots as the daemon.
void layer_drive(const std::vector<Frame>& frames,
                 const ControllerConfig& config, const std::string& dir,
                 Tracer& tracer, std::vector<std::uint8_t>& final_state) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Daemon::Options paths = daemon_options(dir, false);
  const std::uint64_t hash = fleet_config_hash(config);
  auto root = tracer.scope("daemon.layers");

  SegmentedFrameLog wal;
  FrameLog decisions;
  wal.open(paths.wal_path, hash, /*resume=*/false, kSegmentFrames);
  decisions.open(paths.decisions_path, hash, /*resume=*/false);
  IncrementalController controller(config);
  std::uint64_t applied = 0, batches = 0, shutdowns = 0, last_snapshot = 0;
  for (const Frame& frame : frames) {
    const auto ordinal = static_cast<std::int64_t>(applied);
    {
      auto span = tracer.scope("telemetry_log.append", ordinal);
      wal.append(frame, /*sync=*/false);
    }
    ++applied;
    if (std::holds_alternative<ShutdownFrame>(frame)) ++shutdowns;
    if (const auto* flush = std::get_if<FlushFrame>(&frame)) {
      DecisionBatchFrame batch;
      {
        auto span = tracer.scope("controller.tick", static_cast<std::int64_t>(flush->tick));
        batch = controller.tick(flush->tick);
      }
      auto span = tracer.scope("telemetry_log.append_decision", ordinal);
      decisions.append(batch, /*sync=*/false);
      ++batches;
    } else {
      auto span = tracer.scope("controller.apply", ordinal);
      controller.apply(frame);
    }
    if (applied - last_snapshot >= kSnapshotEveryFrames) {
      SnapshotData snap;
      snap.frames_covered = applied;
      snap.batches_emitted = batches;
      snap.shutdowns_covered = shutdowns;
      {
        auto span = tracer.scope("controller.save_state", ordinal);
        snap.controller_state = state_of(controller);
      }
      auto span = tracer.scope("snapshot.write", ordinal);
      write_snapshot(paths.snapshot_path, hash, snap);
      last_snapshot = applied;
    }
  }
  {
    auto span = tracer.scope("telemetry_log.close");
    wal.sync();
    decisions.sync();
    wal.close();
    decisions.close();
  }
  final_state = state_of(controller);

  // The restart path, piece by piece.
  {
    auto span = tracer.scope("telemetry_log.read");
    read_segmented_wal(paths.wal_path);
    read_frame_log(paths.decisions_path);
  }
  SnapshotData snap;
  {
    auto span = tracer.scope("snapshot.read");
    read_snapshot(paths.snapshot_path, hash, snap);
  }
  {
    auto span = tracer.scope("controller.restore_state");
    IncrementalController restored(config);
    wire::ByteReader r(snap.controller_state.data(), snap.controller_state.size());
    restored.restore_state(r);
  }
  // End-of-stream state: the one a restart after the feed would restore.
  for (int i = 0; i < 3; ++i) {
    SnapshotData end;
    end.frames_covered = applied;
    end.batches_emitted = batches;
    end.shutdowns_covered = shutdowns;
    {
      auto span = tracer.scope("controller.save_state_end");
      end.controller_state = state_of(controller);
    }
    {
      auto span = tracer.scope("snapshot.write_end");
      write_snapshot(paths.snapshot_path + ".end", hash, end);
    }
    SnapshotData back;
    {
      auto span = tracer.scope("snapshot.read_end");
      read_snapshot(paths.snapshot_path + ".end", hash, back);
    }
    auto span = tracer.scope("controller.restore_state_end");
    IncrementalController restored(config);
    wire::ByteReader r(back.controller_state.data(), back.controller_state.size());
    restored.restore_state(r);
  }
}

}  // namespace

Result run_daemon_uptime(const Args& args) {
  Result result;
  ThreadPool pool(1);  // one thread: the controller runs on the caller
  ScopedPoolOverride use_pool(pool);
  const ControllerConfig config;

  // ---- set-up: generate the churn stream ----
  std::vector<Frame> frames;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t = now();
    frames = generate_churn(churn_options(args.seed), config);
    setup.push_back(now() - t);
  }
  result.set("setup_s", median(setup));

  // ---- measured phase ----
  // The traced run keeps three feeds: 1200 ticks leave 12 beyond the p99.
  const int reps = args.trace ? 3
                              : std::max(2, static_cast<int>(std::lround(
                                                args.seconds / kNominalRepSeconds)));
  std::vector<double> tick_ms, restart_ms;
  Rep last;
  const double job_start = now();
  for (int r = 0; r < reps; ++r) {
    last = feed_and_restart(frames, config, args.workdir + "/live", result);
    tick_ms.insert(tick_ms.end(), last.tick_ms.begin(), last.tick_ms.end());
    restart_ms.insert(restart_ms.end(), last.restart_ms.begin(), last.restart_ms.end());
  }
  const double job_s = now() - job_start;
  result.set("job_s", job_s);
  result.set("decide_p50_ms", median(tick_ms));
  result.set("second_p50_ms", median(restart_ms));
  result.set("tick_p99_ms", percentile(tick_ms, 0.99));
  std::printf("daemon_uptime: %d feeds, %zu ticks (p50 %.3f ms, p99 %.3f ms, "
              "%zu beyond p99), %zu restarts (p50 %.2f ms)\n",
              reps, tick_ms.size(), median(tick_ms), percentile(tick_ms, 0.99),
              beyond(tick_ms, 0.99), restart_ms.size(), median(restart_ms));

  // ---- correctness: live decision log == cold replay of the chain ----
  const std::string live_dir = args.workdir + "/live";
  const DaemonStats replayed =
      replay_wal(live_dir + "/live.wal", live_dir + "/replay.decisions", config,
                 /*resume=*/false, /*durable=*/false);
  if (file_bytes(live_dir + "/live.decisions") !=
      file_bytes(live_dir + "/replay.decisions"))
    result.fail("live decision log differs from replay_wal of the chain");
  if (replayed.batches != last.stats.batches ||
      replayed.migrations != last.stats.migrations)
    result.fail("replay decision totals differ from the live daemon's");

  // ---- structural counts ----
  const DaemonStats& s = last.stats;
  const double snapshot_bytes = static_cast<double>(
      std::filesystem::file_size(live_dir + "/ctrl.snap"));
  print_count("stream.frames", static_cast<double>(frames.size()));
  print_count("stream.ticks", static_cast<double>(s.batches));
  print_count("decisions.total", static_cast<double>(s.admits + s.migrations + s.holds));
  print_count("decisions.admits", static_cast<double>(s.admits));
  print_count("decisions.migrations", static_cast<double>(s.migrations));
  print_count("decisions.holds", static_cast<double>(s.holds));
  print_count("daemon.snapshots_written", static_cast<double>(s.snapshots_written));
  print_count("daemon.suffix_frames", static_cast<double>(last.suffix_frames));
  print_count("snapshot.bytes", snapshot_bytes);
  print_count("controller.state_bytes", static_cast<double>(last.live_state.size()));

  if (!args.trace) {
    print_registry();
    return result;
  }

  // ---- traced run: the same stream driven layer by layer, in spans ----
  std::vector<std::uint8_t> twin_state, traced_state;
  // The untraced twin runs before and after the traced drive; their mean
  // is the overhead reference, so a drift over the run cancels.
  Tracer off(false);
  Tracer tracer(true);
  double untraced_s = 0;
  for (int i = 0; i < 2; ++i) {
    const double t0 = now();
    layer_drive(frames, config, args.workdir + "/twin", off, twin_state);
    untraced_s += (now() - t0) / 2;
    if (i == 0) layer_drive(frames, config, args.workdir + "/traced", tracer, traced_state);
  }
  if (traced_state != last.live_state || twin_state != last.live_state)
    result.fail("layer drive ended in a different controller state");
  if (file_bytes(args.workdir + "/traced/live.decisions") !=
      file_bytes(live_dir + "/live.decisions"))
    result.fail("layer drive wrote a different decision log");

  const std::vector<double> ticks = tracer.durations("controller.tick");
  std::vector<double> tick_traced_ms;
  for (double d : ticks) tick_traced_ms.push_back(d * 1e3);
  const double first = tenth_median(tick_traced_ms, false);
  const double last_tenth = tenth_median(tick_traced_ms, true);
  const double wall = tracer.total("daemon.layers");
  result.set("controller.apply_us", median(tracer.durations("controller.apply")) * 1e6);
  result.set("controller.tick_first_p50_ms", first);
  result.set("controller.tick_last_p50_ms", last_tenth);
  result.set("controller.tick_growth", first > 0 ? last_tenth / first : 0);
  result.set("controller.state_bytes", static_cast<double>(traced_state.size()));
  result.set("controller.save_state_ms",
             median(tracer.durations("controller.save_state_end")) * 1e3);
  result.set("controller.restore_state_ms",
             median(tracer.durations("controller.restore_state_end")) * 1e3);
  result.set("snapshot.bytes", snapshot_bytes);
  result.set("snapshot.write_ms", median(tracer.durations("snapshot.write_end")) * 1e3);
  result.set("snapshot.read_ms", median(tracer.durations("snapshot.read_end")) * 1e3);
  result.set("daemon.suffix_frames", static_cast<double>(last.suffix_frames));
  result.set("telemetry_log.append_us",
             median(tracer.durations("telemetry_log.append")) * 1e6);
  result.set("telemetry_log.read_ms", tracer.total("telemetry_log.read") * 1e3);
  result.set("stream.frames", static_cast<double>(frames.size()));
  result.set("stream.ticks", static_cast<double>(s.batches));
  result.set("decisions.total", static_cast<double>(s.admits + s.migrations + s.holds));
  result.set("decisions.admits", static_cast<double>(s.admits));
  result.set("decisions.migrations", static_cast<double>(s.migrations));
  result.set("trace.wall_s", wall);
  result.set("trace.unattributed_frac", tracer.self_time("daemon.layers") / wall);
  result.set("trace.overhead_s", wall - untraced_s);
  std::printf("traced: tick p50 first tenth %.3f ms, last tenth %.3f ms; "
              "save_state %zu bytes\n",
              first, last_tenth, traced_state.size());
  print_registry();
  tracer.write_csv(args.workdir + "/spans.csv");
  return result;
}

}  // namespace perfbench
