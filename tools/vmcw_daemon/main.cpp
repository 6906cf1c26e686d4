// vmcw_daemon: the online consolidation daemon's CLI.
//
// Two modes:
//
//   vmcw_daemon --gen-wal PATH [--hosts N] [--vms N] [--ticks N] [--seed S]
//       Generate a deterministic churn WAL at PATH (the stream a fleet of
//       collection agents would emit). --hosts maps to the number of
//       telemetry collectors; --vms to the initial population.
//
//   vmcw_daemon --wal PATH --replay [--decisions PATH] [--resume]
//       Replay a recorded WAL through the incremental controller, writing
//       the decision log (default: PATH.decisions). With --resume, the
//       decision log's intact prefix survives a crash: recomputed batches
//       are skipped instead of re-appended, so a resumed log is
//       byte-identical to an uninterrupted run.
//
//   vmcw_daemon --listen SOCK --wal PATH [--decisions PATH] [--resume]
//               [--tcp PORT] [--collectors K] [--queue N]
//               [--shed-ms MS] [--recover-ms MS] [--batch N]
//               [--snapshot PATH] [--snapshot-frames N]
//               [--snapshot-seconds S] [--segment-frames N]
//               [--keep-segments] [--health PATH]
//       Serve the ingestion protocol on a Unix socket (and optionally
//       loopback TCP): accept framed telemetry from K vmcw_collector
//       processes, serialize it WAL-first, and exit once K Shutdown
//       frames are durable. The WAL the serve run leaves behind replays
//       to the exact decision log the live run wrote. The bounded-recovery
//       flags (DESIGN.md §9) turn on controller snapshots, WAL segment
//       rotation with reclamation (--keep-segments retains the full chain
//       for cold replays), the heartbeat file vmcw_supervisor watches,
//       and the writer's frame batching cap.
//
// All gen/replay output on stdout is deterministic: the same WAL always
// prints the same stats and writes the same decision log bytes, at any
// VMCW_THREADS. A serve run's WAL depends on socket arrival order — its
// replay identity is the determinism contract there.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "service/churn.h"
#include "service/daemon.h"
#include "service/ingest.h"
#include "service/telemetry_log.h"

using namespace vmcw;
using namespace vmcw::service;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  vmcw_daemon --gen-wal PATH [--hosts N] [--vms N] [--ticks N]\n"
      "              [--blackouts P] [--seed S]\n"
      "  vmcw_daemon --wal PATH --replay [--decisions PATH] [--resume]\n"
      "  vmcw_daemon --listen SOCK --wal PATH [--decisions PATH] [--resume]\n"
      "              [--tcp PORT] [--collectors K] [--queue N]\n"
      "              [--shed-ms MS] [--recover-ms MS] [--batch N]\n"
      "              [--snapshot PATH] [--snapshot-frames N]\n"
      "              [--snapshot-seconds S] [--segment-frames N]\n"
      "              [--keep-segments] [--health PATH]\n");
  return 2;
}

int serve(Daemon::Options daemon_options, const IngestOptions& ingest_options) {
  const ControllerConfig config;
  Daemon daemon(config, std::move(daemon_options));
  const Daemon::OpenResult opened = daemon.open();
  if (opened.snapshot_loaded)
    std::fprintf(stderr, "recovered from snapshot at frame %llu "
                         "(+%zu WAL suffix frames)\n",
                 static_cast<unsigned long long>(opened.snapshot_frames),
                 opened.frames_recovered);
  else if (opened.frames_recovered > 0)
    std::fprintf(stderr, "resumed %zu frames, %zu batches\n",
                 opened.frames_recovered, opened.batches_recovered);

  IngestServer server(daemon, ingest_options);
  server.start(opened.wal_frames, opened.ack_marks, opened.shutdowns_recovered);
  std::fprintf(stderr, "listening on %s\n",
               ingest_options.unix_path.c_str());
  server.wait();
  const bool synced = daemon.close();
  if (server.failed() || !synced) {
    // Every Ack sent named a durable frame; the rest is the restart's job.
    std::fprintf(stderr, "vmcw_daemon: a WAL or decision-log write or sync "
                         "failed; stopped without acking the frames it "
                         "could not make durable\n");
    return 1;
  }

  const IngestStats in = server.stats();
  const DaemonStats& stats = daemon.stats();
  std::printf("ingested %zu messages from %zu connections "
              "(%zu duplicates dropped, %zu rejects, %zu shed entries)\n",
              in.messages_ingested, in.connections_accepted,
              in.duplicates_dropped, in.rejects_sent, in.shed_entries);
  if (stats.snapshots_written > 0 || stats.segments_reclaimed > 0)
    std::fprintf(stderr, "bounded recovery: %zu snapshots, "
                         "%zu segments reclaimed, %zu WAL batches\n",
                 stats.snapshots_written, stats.segments_reclaimed,
                 in.wal_batches);
  std::printf("decisions: %zu batches, %zu admits, %zu migrations, "
              "%zu holds, %zu degraded ticks\n",
              stats.batches, stats.admits, stats.migrations, stats.holds,
              stats.degraded_ticks);
  return 0;
}

int gen_wal(const std::string& path, const ChurnOptions& churn) {
  const ControllerConfig config;
  const auto frames = generate_churn(churn, config);
  FrameLog wal;
  wal.open(path, fleet_config_hash(config), /*resume=*/false);
  bool written = true;
  for (const Frame& frame : frames)
    written = written && wal.append(frame, /*sync=*/false);
  if (!written || !wal.sync()) {
    std::fprintf(stderr, "vmcw_daemon: cannot write %s\n", path.c_str());
    return 1;
  }
  wal.close();
  std::printf("wrote %zu frames to %s (vms=%zu ticks=%zu seed=%llu)\n",
              frames.size(), path.c_str(), churn.initial_vms, churn.ticks,
              static_cast<unsigned long long>(churn.seed));
  return 0;
}

int replay(const std::string& wal_path, const std::string& decisions_path,
           bool resume) {
  const ControllerConfig config;
  const DaemonStats stats =
      replay_wal(wal_path, decisions_path, config, resume);
  std::printf("replayed %zu frames: %zu batches, %zu admits, "
              "%zu migrations, %zu holds, %zu degraded ticks\n",
              stats.frames, stats.batches, stats.admits, stats.migrations,
              stats.holds, stats.degraded_ticks);
  std::printf("decision log: %s\n", decisions_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string gen_path, wal_path, decisions_path;
  bool do_replay = false, resume = false;
  ChurnOptions churn;
  churn.blackout_prob = 0.0;
  IngestOptions ingest;
  Daemon::Options daemon_options;
  daemon_options.durable = true;
  bool do_listen = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--gen-wal") {
      const char* v = value();
      if (!v) return usage();
      gen_path = v;
    } else if (arg == "--wal") {
      const char* v = value();
      if (!v) return usage();
      wal_path = v;
    } else if (arg == "--decisions") {
      const char* v = value();
      if (!v) return usage();
      decisions_path = v;
    } else if (arg == "--hosts") {
      const char* v = value();
      if (!v) return usage();
      churn.agents = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--vms") {
      const char* v = value();
      if (!v) return usage();
      churn.initial_vms = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--ticks") {
      const char* v = value();
      if (!v) return usage();
      churn.ticks = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--blackouts") {
      const char* v = value();
      if (!v) return usage();
      churn.blackout_prob = std::atof(v);
    } else if (arg == "--seed") {
      const char* v = value();
      if (!v) return usage();
      churn.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--replay") {
      do_replay = true;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--listen") {
      const char* v = value();
      if (!v) return usage();
      ingest.unix_path = v;
      do_listen = true;
    } else if (arg == "--tcp") {
      const char* v = value();
      if (!v) return usage();
      ingest.tcp_port = std::atoi(v);
    } else if (arg == "--collectors") {
      const char* v = value();
      if (!v) return usage();
      ingest.expected_shutdowns = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--queue") {
      const char* v = value();
      if (!v) return usage();
      ingest.queue_capacity = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--shed-ms") {
      const char* v = value();
      if (!v) return usage();
      ingest.shed_fsync_seconds = std::atof(v) / 1000.0;
    } else if (arg == "--recover-ms") {
      const char* v = value();
      if (!v) return usage();
      ingest.recover_fsync_seconds = std::atof(v) / 1000.0;
    } else if (arg == "--batch") {
      const char* v = value();
      if (!v) return usage();
      ingest.max_batch_frames = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--snapshot") {
      const char* v = value();
      if (!v) return usage();
      daemon_options.snapshot_path = v;
    } else if (arg == "--snapshot-frames") {
      const char* v = value();
      if (!v) return usage();
      daemon_options.snapshot_every_frames =
          static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--snapshot-seconds") {
      const char* v = value();
      if (!v) return usage();
      daemon_options.snapshot_every_seconds = std::atof(v);
    } else if (arg == "--segment-frames") {
      const char* v = value();
      if (!v) return usage();
      daemon_options.segment_frames = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--keep-segments") {
      daemon_options.retain_segments = true;
    } else if (arg == "--health") {
      const char* v = value();
      if (!v) return usage();
      ingest.health_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage();
    }
  }

  try {
    if (!gen_path.empty()) return gen_wal(gen_path, churn);
    if (do_listen && !wal_path.empty()) {
      if (decisions_path.empty()) decisions_path = wal_path + ".decisions";
      daemon_options.wal_path = wal_path;
      daemon_options.decisions_path = decisions_path;
      daemon_options.resume = resume;
      return serve(std::move(daemon_options), ingest);
    }
    if (do_replay && !wal_path.empty()) {
      if (decisions_path.empty()) decisions_path = wal_path + ".decisions";
      return replay(wal_path, decisions_path, resume);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vmcw_daemon: %s\n", e.what());
    return 1;
  }
  return usage();
}
