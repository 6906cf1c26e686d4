// ingest_socket: socket ingest under an open-loop schedule — the
// operator's path: send -> in the WAL -> applied -> decision logged.
//
// One Unix-socket connection into an IngestServer on a Daemon (default
// IngestOptions). The fleet is small (2k VMs) with many agents (500), so a
// tick is ~540 small frames. The sender is open loop and single-threaded:
// it writes envelopes encoded with the public encode_frame, releases one
// tick burst every kPeriod seconds whatever the server does, and reads the
// cumulative Acks with decode_frame, all from one poll loop. Latencies run
// from each message's scheduled send time, so a stall counts against the
// messages behind it. One connection keeps the WAL order, and with it the
// controller's work, identical from run to run.
//
// The measured session runs with a non-durable WAL: fdatasync latency on a
// shared disk drifts too much between runs for a bounded metric, so the
// durable path is measured in the traced run instead (the same session
// with a durable WAL, and the WAL's fdatasync on its own).
//
// The server idles ~85% of each period. On a virtual machine an idle vCPU
// halts and the host deschedules it, so each wake-up of the server's poll
// and writer threads waits on the host's scheduler, and that wait varied
// more from run to run than the program's own work. During a session the
// sender keeps the first CPU and polls without sleeping, the server's
// threads run on the other CPUs, and each of those holds a SCHED_IDLE
// spinner that gives way to any real thread at once: the benchmark's own
// halt-polling. Every CPU stays in the guest; the program is unchanged.
//
//   decide_p50_ms  tick burst's scheduled time -> Ack of its Flush (sent
//                  only after the tick ran and its batch was appended)
//   second_p50_ms  message's scheduled time -> the Ack covering it
//
// Checks: every message acked exactly once, no rejects, and the live WAL
// and decision log byte-equal to a direct Daemon feed of the same stream.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "harness.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "runtime/wire.h"
#include "service/churn.h"
#include "service/collector.h"
#include "service/daemon.h"
#include "service/ingest.h"
#include "service/telemetry_log.h"

namespace perfbench {

using namespace vmcw;
using namespace vmcw::service;

namespace {

/// One tick burst per period: ~540 frames / 40 ms = ~13.5k frames/s
/// offered, well under the ~30k frames/s closed-loop collector capacity.
constexpr double kPeriod = 0.040;
/// Ticks excluded from the latency samples: the first carries the whole
/// initial population (2k arrivals), the rest let the WAL file settle.
constexpr std::size_t kWarmupTicks = 10;
constexpr int kSetupRepeats = 3;
/// No Ack for this long: the session is declared stuck and fails.
constexpr double kStallSeconds = 30.0;

ChurnOptions churn_options(std::uint64_t seed, std::size_t ticks) {
  ChurnOptions churn;
  churn.agents = 500;
  churn.initial_vms = 2000;
  churn.ticks = ticks;
  churn.apps = 12;
  churn.arrivals_per_tick = 20;
  churn.departure_prob = 0.01;
  churn.seed = seed;
  return churn;
}

std::vector<std::uint8_t> envelope(std::uint64_t seq, const Frame& frame) {
  wire::ByteWriter w;
  w.u64(seq);
  std::vector<std::uint8_t> bytes = w.bytes();
  const std::vector<std::uint8_t> body = encode_frame(frame);
  bytes.insert(bytes.end(), body.begin(), body.end());
  return bytes;
}

/// The stream as the sender transmits it: message i carries seq i + 1.
struct Schedule {
  std::vector<Frame> frames;         ///< sent frames, in order (no Hello)
  std::vector<std::uint8_t> wire;    ///< all envelopes back to back
  std::vector<std::size_t> end;      ///< end offset of message i in `wire`
  std::vector<std::size_t> first;    ///< first message of burst b (+ end)
  std::vector<std::size_t> flush;    ///< message index of burst b's Flush
  std::vector<std::uint8_t> hello;   ///< the session's Hello envelope
  std::size_t ticks = 0;

  std::size_t start_of(std::size_t message) const {
    return message == 0 ? 0 : end[message - 1];
  }
};

Schedule make_schedule(const std::vector<Frame>& churn,
                       const ControllerConfig& config) {
  Schedule s;
  s.hello = envelope(0, HelloFrame{kProtocolVersion, fleet_config_hash(config),
                                   "perfbench"});
  s.first.push_back(0);
  for (const Frame& frame : churn) {
    if (std::holds_alternative<HelloFrame>(frame)) continue;
    const std::size_t index = s.frames.size();
    s.frames.push_back(frame);
    const std::vector<std::uint8_t> bytes = envelope(index + 1, frame);
    s.wire.insert(s.wire.end(), bytes.begin(), bytes.end());
    s.end.push_back(s.wire.size());
    if (std::holds_alternative<FlushFrame>(frame)) {
      s.flush.push_back(index);
      s.first.push_back(index + 1);
    }
  }
  s.ticks = s.flush.size();
  // The trailing Shutdown rides in one last burst of its own.
  if (s.first.back() != s.frames.size()) s.first.push_back(s.frames.size());
  return s;
}

/// A Daemon and the IngestServer in front of it.
struct Server {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<IngestServer> ingest;
  std::string socket;
};

Server start_server(const ControllerConfig& config, const std::string& dir,
                    bool durable) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Server s;
  Daemon::Options options;
  options.wal_path = dir + "/live.wal";
  options.decisions_path = dir + "/live.decisions";
  options.durable = durable;
  s.daemon = std::make_unique<Daemon>(config, options);
  const Daemon::OpenResult opened = s.daemon->open();
  IngestOptions ingest;
  s.socket = dir + "/s.sock";
  ingest.unix_path = s.socket;
  ingest.expected_shutdowns = 1;
  if (durable) {
    // The open-loop sender never resends, so a shed frame would fail the
    // run; one slow fdatasync on a shared disk must not decide that.
    ingest.shed_fsync_seconds = 10.0;
    ingest.recover_fsync_seconds = 5.0;
  }
  s.ingest = std::make_unique<IngestServer>(*s.daemon, ingest);
  s.ingest->start(opened.wal_frames);
  return s;
}

/// Stop a server that will see no Shutdown and close its daemon.
void stop_server(Server& s) {
  s.ingest->stop();
  s.ingest->wait();
  s.ingest.reset();
  s.daemon->close();
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The process's CPUs split into the sender's (the first) and the rest.
struct CpuSplit {
  cpu_set_t sender;
  cpu_set_t server;
  bool split = false;  ///< false with fewer than two CPUs: no pinning
};

CpuSplit split_cpus() {
  CpuSplit c;
  CPU_ZERO(&c.sender);
  CPU_ZERO(&c.server);
  cpu_set_t all;
  if (::sched_getaffinity(0, sizeof(all), &all) != 0) return c;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all)) continue;
    CPU_SET(cpu, CPU_COUNT(&c.sender) == 0 ? &c.sender : &c.server);
  }
  c.split = CPU_COUNT(&c.server) > 0;
  return c;
}

/// Pin the calling thread; threads it starts later inherit the set.
void pin(const cpu_set_t& cpus) { ::sched_setaffinity(0, sizeof(cpus), &cpus); }

/// One SCHED_IDLE spinner per CPU of `cpus` while in scope: those CPUs
/// never halt, and any real thread preempts a spinner on wake-up.
class IdleSpinners {
 public:
  explicit IdleSpinners(const cpu_set_t& cpus) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &cpus)) continue;
      threads_.emplace_back([this, cpu] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pin(one);
        const sched_param param{};
        ::sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_ = true;
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

struct Session {
  std::vector<double> ack_at;      ///< per message: Ack arrival, s after t0
  std::vector<double> late;        ///< per burst: first write - due (s)
  std::size_t acks = 0;
  std::size_t duplicate_acks = 0;
  std::size_t rejects = 0;
  bool complete = false;
  double wall = 0;
};

/// Between socket checks a spinning sender waits at most this long, so
/// its syscalls leave the socket to the server most of the time.
constexpr double kSpinGap = 20e-6;

/// The open-loop sender: one thread, one poll loop. With `spin` it never
/// sleeps: its CPU must be its own.
Session run_session(const Schedule& s, const std::string& socket, bool spin) {
  Session out;
  const std::size_t n = s.frames.size();
  out.ack_at.assign(n, -1.0);
  const std::size_t bursts = s.first.size() - 1;
  out.late.assign(bursts, 0.0);

  const int fd = connect_unix(socket);
  if (fd < 0) return out;
  const double start = now();
  wire::write_all(fd, s.hello.data(), s.hello.size());
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);

  std::vector<std::uint8_t> in;
  std::size_t in_pos = 0;
  bool hello_acked = false;
  std::size_t acked = 0;      // messages covered by the cumulative Ack
  std::size_t written = 0;    // bytes of `wire` handed to the socket
  std::size_t released = 0;   // bursts whose due time has passed
  std::size_t started = 0;    // bursts whose first byte was written
  double t0 = 0;              // schedule origin, set once the Hello is acked
  double last_progress = now();
  std::uint8_t buf[1 << 16];

  while (acked < n) {
    const double t = now();
    if (t - last_progress > kStallSeconds) break;
    if (hello_acked) {
      while (released < bursts &&
             static_cast<double>(released) * kPeriod <= t - t0)
        ++released;
      const std::size_t target = s.start_of(s.first[released]);
      if (written < target) {
        while (started < released && s.start_of(s.first[started]) <= written) {
          out.late[started] = t - t0 - static_cast<double>(started) * kPeriod;
          ++started;
        }
        const ssize_t k = ::send(fd, s.wire.data() + written, target - written,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (k > 0) {
          written += static_cast<std::size_t>(k);
        } else if (k < 0 && errno != EAGAIN && errno != EINTR) {
          break;
        }
      }
    }

    const ssize_t k = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (k == 0) break;
    if (k < 0 && errno != EAGAIN && errno != EINTR) break;
    if (k > 0) {
      const double at = now();
      in.insert(in.end(), buf, buf + k);
      while (in.size() - in_pos >= kFrameHeaderSize) {
        const std::uint64_t length = wire::load_u64(in.data() + in_pos + 1);
        if (in.size() - in_pos < kFrameHeaderSize + length) break;
        const DecodedFrame d = decode_frame(in.data() + in_pos, in.size() - in_pos);
        in_pos += d.consumed;
        if (const auto* ack = std::get_if<AckFrame>(&d.frame)) {
          ++out.acks;
          if (!hello_acked) {
            hello_acked = true;
            t0 = at;
          } else if (ack->seq <= acked || ack->seq > n) {
            ++out.duplicate_acks;
          } else {
            for (std::size_t m = acked; m < ack->seq; ++m) out.ack_at[m] = at - t0;
            acked = static_cast<std::size_t>(ack->seq);
            last_progress = at;
          }
        } else {
          ++out.rejects;
        }
      }
      if (in_pos == in.size()) {
        in.clear();
        in_pos = 0;
      }
      continue;  // drain everything readable before sleeping
    }

    // Wait until the socket is ready or the next burst is due.
    pollfd p{fd, POLLIN, 0};
    double wait = spin ? kSpinGap : 0.005;
    if (hello_acked) {
      if (written < s.start_of(s.first[released])) p.events |= POLLOUT;
      if (released < bursts)
        wait = std::min(wait, t0 + static_cast<double>(released) * kPeriod - now());
    }
    if (spin) {
      for (const double until = now() + wait; now() < until;) {
      }
      continue;
    }
    const timespec ts{0, static_cast<long>(std::max(0.0, wait) * 1e9)};
    ::ppoll(&p, 1, &ts, nullptr);
  }
  out.wall = now() - start;
  out.complete = acked == n;
  ::close(fd);
  return out;
}

/// Latency samples of one session, warm-up ticks and the Shutdown burst
/// excluded, in milliseconds.
struct Latencies {
  std::vector<double> decision_ms;  ///< per tick, in tick order
  std::vector<double> ack_ms;       ///< per message
};

Latencies latencies(const Schedule& s, const Session& session) {
  Latencies l;
  for (std::size_t b = kWarmupTicks; b < s.ticks; ++b) {
    const double due = static_cast<double>(b) * kPeriod;
    l.decision_ms.push_back((session.ack_at[s.flush[b]] - due) * 1e3);
    for (std::size_t m = s.first[b]; m < s.first[b + 1]; ++m)
      l.ack_ms.push_back((session.ack_at[m] - due) * 1e3);
  }
  return l;
}

/// One session against a started server, then the server's own view.
struct Served {
  Session session;
  Latencies lat;
  IngestStats ingest;
  DaemonStats daemon;
  std::uint64_t fsyncs = 0;    ///< WAL fdatasyncs during the session
  double fsync_seconds = 0;    ///< their summed latency
};

/// The server must have been started from a thread pinned to
/// `cpus.server`; the caller returns there afterwards.
Served serve(const Schedule& schedule, Server& server, const CpuSplit& cpus) {
  const MetricsRegistry::Histogram before =
      MetricsRegistry::global().histogram("service.wal_fsync_seconds");
  Served out;
  if (cpus.split) {
    const IdleSpinners awake(cpus.server);
    pin(cpus.sender);
    out.session = run_session(schedule, server.socket, /*spin=*/true);
    pin(cpus.server);
  } else {
    out.session = run_session(schedule, server.socket, /*spin=*/false);
  }
  // A broken session never delivered its Shutdown; stop the server instead.
  if (!out.session.complete) server.ingest->stop();
  server.ingest->wait();
  out.ingest = server.ingest->stats();
  out.daemon = server.daemon->stats();
  server.ingest.reset();
  server.daemon->close();
  out.lat = latencies(schedule, out.session);
  const MetricsRegistry::Histogram after =
      MetricsRegistry::global().histogram("service.wal_fsync_seconds");
  out.fsyncs = after.count - before.count;
  out.fsync_seconds = after.sum - before.sum;
  return out;
}

/// Messages of a session that failed: never acked. The sender does not
/// resend, so this covers rejected and shed messages too. Also flags any
/// Ack accounting that is not exactly once.
std::size_t session_failures(const Served& s, std::size_t messages, Result& result) {
  std::size_t never_acked = 0;
  for (double at : s.session.ack_at)
    if (at < 0) ++never_acked;
  if (s.session.duplicate_acks != 0 || s.session.acks != messages + 1)
    result.fail("acks: " + std::to_string(s.session.acks) + " for " +
                std::to_string(messages) + " messages + hello, " +
                std::to_string(s.session.duplicate_acks) + " duplicate");
  if (s.ingest.rejects_sent != 0 || s.ingest.messages_ingested != messages)
    result.fail("server ingested " + std::to_string(s.ingest.messages_ingested) +
                " of " + std::to_string(messages) + " messages with " +
                std::to_string(s.ingest.rejects_sent) + " rejects");
  return never_acked;
}

}  // namespace

Result run_ingest_socket(const Args& args) {
  Result result;
  // Everything but the sender of a session runs off the sender's CPU,
  // servers and pool included: their threads inherit this pinning.
  const CpuSplit cpus = split_cpus();
  if (cpus.split) pin(cpus.server);
  // The controller applies on the server's writer thread; a one-thread
  // pool keeps it there, so sender + poll + writer stay within 4 threads.
  ThreadPool pool(1);
  ScopedPoolOverride use_pool(pool);
  const ControllerConfig config;
  const auto ticks = static_cast<std::size_t>(
      std::max(50L, std::lround(args.seconds / kPeriod)));

  // ---- set-up: stream, envelopes, server (median of three) ----
  const std::string live_dir = args.workdir + "/live";
  Schedule schedule;
  Server server;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server.ingest) stop_server(server);
    const double t = now();
    schedule = make_schedule(generate_churn(churn_options(args.seed, ticks), config),
                             config);
    server = start_server(config, live_dir, /*durable=*/false);
    setup.push_back(now() - t);
  }
  result.set("setup_s", median(setup));
  const std::size_t n = schedule.frames.size();

  // ---- measured phase: one open-loop session ----
  const Served live = serve(schedule, server, cpus);
  const Latencies& lat = live.lat;
  result.set("job_s", live.session.wall);
  if (live.session.complete) {
    result.set("decide_p50_ms", median(lat.decision_ms));
    result.set("second_p50_ms", median(lat.ack_ms));
    result.set("decision_p95_ms", percentile(lat.decision_ms, 0.95));
    result.set("ack_p99_ms", percentile(lat.ack_ms, 0.99));
  }
  std::vector<double> late_ms;
  for (double l : live.session.late) late_ms.push_back(l * 1e3);
  const double growth_first = tenth_median(lat.decision_ms, false);
  const double growth =
      growth_first > 0 ? tenth_median(lat.decision_ms, true) / growth_first : 0;
  std::printf("ingest_socket: %zu messages in %zu ticks, offered %.0f frames/s "
              "(one burst per %.0f ms); session %.3f s\n",
              n, schedule.ticks,
              static_cast<double>(n) / (static_cast<double>(schedule.ticks) * kPeriod),
              kPeriod * 1e3, live.session.wall);
  std::printf("decision p50 %.3f ms p95 %.3f ms (%zu ticks, %zu beyond p95); "
              "ack p50 %.3f ms p99 %.3f ms (%zu messages, %zu beyond p99)\n",
              median(lat.decision_ms), percentile(lat.decision_ms, 0.95),
              lat.decision_ms.size(), beyond(lat.decision_ms, 0.95),
              median(lat.ack_ms), percentile(lat.ack_ms, 0.99), lat.ack_ms.size(),
              beyond(lat.ack_ms, 0.99));
  std::printf("sender late p50 %.3f ms max %.3f ms; decision backlog growth %.3f\n",
              median(late_ms), *std::max_element(late_ms.begin(), late_ms.end()),
              growth);

  // ---- correctness ----
  result.attempted = n;
  result.failed = session_failures(live, n, result);
  {
    const std::string direct_dir = args.workdir + "/direct";
    std::filesystem::remove_all(direct_dir);
    std::filesystem::create_directories(direct_dir);
    Daemon::Options options;
    options.wal_path = direct_dir + "/live.wal";
    options.decisions_path = direct_dir + "/live.decisions";
    options.durable = false;
    Daemon direct(config, options);
    direct.open();
    for (const Frame& frame : schedule.frames) direct.ingest(frame);
    direct.close();
    if (file_bytes(direct_dir + "/live.decisions") !=
        file_bytes(live_dir + "/live.decisions"))
      result.fail("live decision log differs from a direct Daemon feed");
    if (file_bytes(direct_dir + "/live.wal") != file_bytes(live_dir + "/live.wal"))
      result.fail("live WAL differs from a direct Daemon feed");
  }

  // ---- structural counts ----
  const DaemonStats& ds = live.daemon;
  const double decisions = static_cast<double>(ds.admits + ds.migrations + ds.holds);
  print_count("stream.frames", static_cast<double>(n));
  print_count("stream.ticks", static_cast<double>(ds.batches));
  print_count("decisions.total", decisions);
  print_count("decisions.admits", static_cast<double>(ds.admits));
  print_count("decisions.migrations", static_cast<double>(ds.migrations));
  print_count("ingest.wal_batches", static_cast<double>(live.ingest.wal_batches));
  print_count("ingest.backpressure_stalls",
              static_cast<double>(live.ingest.backpressure_stalls));
  print_count("ingest.rejects", static_cast<double>(live.ingest.rejects_sent));

  if (!args.trace) {
    print_registry();
    return result;
  }

  // ---- traced run ----
  const IngestStats& stats = live.ingest;
  const double frames_per_batch =
      stats.wal_batches > 0 ? static_cast<double>(stats.messages_ingested) /
                                  static_cast<double>(stats.wal_batches)
                            : 0;
  result.set("ingest.wal_batches", static_cast<double>(stats.wal_batches));
  result.set("ingest.frames_per_batch", frames_per_batch);
  result.set("ingest.backpressure_stalls", static_cast<double>(stats.backpressure_stalls));
  result.set("ingest.rejects", static_cast<double>(stats.rejects_sent));
  result.set("generator.late_p50_ms", median(late_ms));
  result.set("generator.late_max_ms", *std::max_element(late_ms.begin(), late_ms.end()));
  result.set("ingest.backlog_growth", growth);
  result.set("stream.frames", static_cast<double>(n));
  result.set("stream.ticks", static_cast<double>(ds.batches));
  result.set("decisions.total", decisions);
  result.set("decisions.admits", static_cast<double>(ds.admits));
  result.set("decisions.migrations", static_cast<double>(ds.migrations));

  // The same session with a durable WAL: an Ack now means fdatasync'd.
  std::size_t durable_batches = 0;
  double durable_frames_per_batch = 1;
  {
    Server durable_server = start_server(config, args.workdir + "/durable", true);
    const Served durable = serve(schedule, durable_server, cpus);
    result.attempted += n;
    result.failed += session_failures(durable, n, result);
    if (durable.session.complete) {
      result.set("durable.decision_p50_ms", median(durable.lat.decision_ms));
      result.set("durable.ack_p50_ms", median(durable.lat.ack_ms));
    }
    durable_batches = durable.ingest.wal_batches;
    if (durable_batches > 0)
      durable_frames_per_batch = static_cast<double>(durable.ingest.messages_ingested) /
                                 static_cast<double>(durable_batches);
    result.set("durable.wal_batches", static_cast<double>(durable_batches));
    result.set("service.wal_fsync_mean_ms",
               durable.fsyncs > 0
                   ? durable.fsync_seconds / static_cast<double>(durable.fsyncs) * 1e3
                   : 0);
    std::printf("durable session: decision p50 %.3f ms, ack p50 %.3f ms, "
                "%zu WAL batches, %llu fdatasyncs\n",
                median(durable.lat.decision_ms), median(durable.lat.ack_ms),
                durable.ingest.wal_batches,
                static_cast<unsigned long long>(durable.fsyncs));
  }

  // Layer drive: protocol encode/decode of every message, the controller
  // over the stream, and WAL batches of the durable session's mean size,
  // each appended and then fdatasync'd.
  const auto batch =
      static_cast<std::size_t>(std::max(1.0, std::round(durable_frames_per_batch)));
  const std::size_t syncs = std::min<std::size_t>(200, durable_batches);
  const auto drive = [&](Tracer& tracer, const std::string& dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto root = tracer.scope("ingest.layers");
    // Protocol spans cover one tick burst each; per-message spans would
    // cost more than the calls they time.
    for (std::size_t b = 0; b + 1 < schedule.first.size(); ++b) {
      auto span = tracer.scope("protocol.encode", static_cast<std::int64_t>(b));
      for (std::size_t i = schedule.first[b]; i < schedule.first[b + 1]; ++i)
        envelope(i + 1, schedule.frames[i]);
    }
    for (std::size_t b = 0; b + 1 < schedule.first.size(); ++b) {
      auto span = tracer.scope("protocol.decode", static_cast<std::int64_t>(b));
      for (std::size_t i = schedule.first[b]; i < schedule.first[b + 1]; ++i) {
        const std::size_t at = schedule.start_of(i) + 8;
        decode_frame(schedule.wire.data() + at, schedule.end[i] - at);
      }
    }
    IncrementalController controller(config);
    for (std::size_t i = 0; i < n; ++i) {
      const Frame& frame = schedule.frames[i];
      if (const auto* flush = std::get_if<FlushFrame>(&frame)) {
        auto span = tracer.scope("controller.tick", static_cast<std::int64_t>(flush->tick));
        controller.tick(flush->tick);
      } else {
        auto span = tracer.scope("controller.apply", static_cast<std::int64_t>(i));
        controller.apply(frame);
      }
    }
    FrameLog wal;
    wal.open(dir + "/sync.wal", fleet_config_hash(config), /*resume=*/false);
    for (std::size_t b = 0; b < syncs; ++b) {
      {
        auto span = tracer.scope("telemetry_log.append", static_cast<std::int64_t>(b));
        for (std::size_t j = 0; j < batch; ++j)
          wal.append(schedule.frames[(b * batch + j) % n], /*sync=*/false);
      }
      auto span = tracer.scope("telemetry_log.sync", static_cast<std::int64_t>(b));
      wal.sync();
    }
    wal.close();
  };
  // Untraced before and after the traced drive; the mean is the overhead
  // reference.
  Tracer off(false);
  Tracer tracer(true);
  double untraced_s = 0;
  for (int i = 0; i < 2; ++i) {
    const double t0 = now();
    drive(off, args.workdir + "/twin");
    untraced_s += (now() - t0) / 2;
    if (i == 0) drive(tracer, args.workdir + "/traced");
  }
  const double wall = tracer.total("ingest.layers");

  const std::vector<double> ticks_s = tracer.durations("controller.tick");
  std::vector<double> tick_ms;
  for (double d : ticks_s) tick_ms.push_back(d * 1e3);
  const double first = tenth_median(tick_ms, false);
  const double last = tenth_median(tick_ms, true);
  std::vector<double> sync_ms;
  for (double d : tracer.durations("telemetry_log.sync")) sync_ms.push_back(d * 1e3);
  result.set("protocol.encode_us", tracer.total("protocol.encode") / static_cast<double>(n) * 1e6);
  result.set("protocol.decode_us", tracer.total("protocol.decode") / static_cast<double>(n) * 1e6);
  result.set("protocol.bytes_per_frame",
             static_cast<double>(schedule.wire.size()) / static_cast<double>(n));
  result.set("controller.apply_us", median(tracer.durations("controller.apply")) * 1e6);
  result.set("controller.tick_first_p50_ms", first);
  result.set("controller.tick_last_p50_ms", last);
  result.set("controller.tick_growth", first > 0 ? last / first : 0);
  if (syncs > 0)
    result.set("telemetry_log.append_us", tracer.total("telemetry_log.append") /
                                              static_cast<double>(syncs * batch) * 1e6);
  result.set("telemetry_log.sync_p50_ms", median(sync_ms));
  result.set("telemetry_log.sync_p99_ms", percentile(sync_ms, 0.99));
  result.set("trace.wall_s", wall);
  result.set("trace.unattributed_frac", tracer.self_time("ingest.layers") / wall);
  result.set("trace.overhead_s", wall - untraced_s);
  tracer.write_csv(args.workdir + "/spans.csv");

  // collector: the closed-loop CollectorClient over the same stream.
  {
    Server closed = start_server(config, args.workdir + "/closed", /*durable=*/false);
    CollectorOptions options;
    options.unix_path = closed.socket;
    options.peer = "perfbench-closed-loop";
    options.fleet_hash = fleet_config_hash(config);
    CollectorClient client(options);
    const double t = now();
    client.run(schedule.frames);
    closed.ingest->wait();
    const double seconds = now() - t;
    if (closed.ingest->stats().messages_ingested != n)
      result.fail("closed-loop collector run did not deliver every message");
    closed.ingest.reset();
    closed.daemon->close();
    result.set("collector.closed_loop_frames_per_s", static_cast<double>(n) / seconds);
    std::printf("closed-loop collector: %.0f frames/s\n", static_cast<double>(n) / seconds);
  }
  print_registry();
  return result;
}

}  // namespace perfbench
