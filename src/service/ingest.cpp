#include "service/ingest.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <span>
#include <stdexcept>
#include <utility>

#include "runtime/telemetry.h"
#include "runtime/wire.h"

namespace vmcw::service {

namespace {

/// One enveloped message needs the seq word plus the frame header before
/// its total length is known.
constexpr std::size_t kEnvelopeHeader = 8 + kFrameHeaderSize;

/// Poll granularity: long enough to sleep, short enough that a stop
/// request or a missed wake is picked up promptly.
constexpr int kPollMillis = 50;

int make_listener_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("ingest: unix socket path too long: " + path);
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("ingest: cannot create unix socket");
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("ingest: cannot bind unix socket " + path);
  }
  return fd;
}

int make_listener_tcp(int port, int& bound_port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("ingest: cannot create tcp socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never a public interface
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("ingest: cannot bind tcp port " +
                             std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port = static_cast<int>(ntohs(bound.sin_port));
  return fd;
}

bool is_data_kind(FrameKind kind) noexcept {
  return kind == FrameKind::kHostTelemetryDelta ||
         kind == FrameKind::kVmArrival || kind == FrameKind::kVmDeparture;
}

[[noreturn]] void throw_not_durable() {
  throw std::runtime_error("ingest: WAL append or sync failed");
}

bool is_control_kind(FrameKind kind) noexcept {
  return kind == FrameKind::kHeartbeat || kind == FrameKind::kFlush ||
         kind == FrameKind::kShutdown;
}

}  // namespace

IngestServer::IngestServer(Daemon& daemon, IngestOptions options)
    : daemon_(daemon),
      options_(std::move(options)),
      queue_(options_.queue_capacity) {}

IngestServer::~IngestServer() {
  stop();
  wait();
  for (const int fd : {unix_fd_, tcp_fd_, wake_rd_, wake_wr_})
    if (fd >= 0) ::close(fd);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void IngestServer::start(
    const std::vector<Frame>& recovered_frames,
    const std::map<std::string, std::uint64_t>& recovered_marks,
    std::uint64_t recovered_shutdowns) {
  if (started_) throw std::logic_error("ingest: start() called twice");
  if (options_.unix_path.empty() && options_.tcp_port < 0)
    throw std::runtime_error("ingest: no listener configured");

  if (!options_.unix_path.empty())
    unix_fd_ = make_listener_unix(options_.unix_path);
  if (options_.tcp_port >= 0)
    tcp_fd_ = make_listener_tcp(options_.tcp_port, bound_tcp_port_);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0)
    throw std::runtime_error("ingest: cannot create wake pipe");
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];

  // Seed the duplicate filter: a frame already durable from before a
  // crash is identified by its full encoding (pure, so equal frames hash
  // equal). A multiset, because a stream may legitimately repeat an
  // encoding and each durable copy licenses exactly one drop.
  for (const Frame& frame : recovered_frames) {
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    ++dedup_[wire::fnv1a64(bytes.data(), bytes.size())];
  }
  // Snapshot-recovered ack marks: frames at or below a peer's mark were
  // durable before the newest checkpoint (their WAL segments may already
  // be reclaimed), so a resend of them is answered off the mark by the
  // seq <= last_acked path — the dedup filter only needs the replayed
  // suffix seeded above.
  last_acked_ = recovered_marks;
  // Every snapshot captures the marks as of the batch boundary it is
  // written at (writer thread, after the marks advanced), which is what
  // keeps mark-based re-acks and dedup-based drops exactly partitioned.
  daemon_.set_ack_marks_provider([this] { return last_acked_; });

  // Shutdown frames already durable before the restart count toward the
  // exit condition: their collectors got the Ack and exited. If the whole
  // quota was met before the crash, close the queue up front — the writer
  // drains nothing and the serve run ends immediately (a supervised daemon
  // killed after ingest completed restarts, recovers, and exits 0 instead
  // of waiting forever on resends that cannot come).
  shutdowns_seen_ = static_cast<std::size_t>(recovered_shutdowns);
  {
    MutexLock lk(stats_mutex_);
    stats_.shutdowns_seen = shutdowns_seen_;
  }
  if (options_.expected_shutdowns > 0 &&
      shutdowns_seen_ >= options_.expected_shutdowns)
    queue_.close();

  started_ = true;
  writer_thread_ = std::thread([this] { writer_loop(); });
  poll_thread_ = std::thread([this] { poll_loop(); });
}

void IngestServer::wait() {
  if (poll_thread_.joinable()) poll_thread_.join();
  if (writer_thread_.joinable()) writer_thread_.join();
}

void IngestServer::stop() {
  stop_.store(true);
  queue_.close();
  wake_poll();
}

IngestStats IngestServer::stats() const {
  MutexLock lk(stats_mutex_);
  return stats_;
}

bool IngestServer::shedding() const {
  MutexLock lk(stats_mutex_);
  return shedding_;
}

void IngestServer::wake_poll() const noexcept {
  if (wake_wr_ < 0) return;
  const std::uint8_t byte = 1;
  // A full pipe already means a wake is pending; EAGAIN is success here.
  [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &byte, 1);
}

// ---------------------------------------------------------------------
// Writer thread: the single consumer that owns WAL order.

void IngestServer::respond(std::uint64_t conn, const Frame& frame,
                           bool close) {
  Response r{conn, encode_frame(frame), close};
  {
    MutexLock lk(response_mutex_);
    responses_.push_back(std::move(r));
  }
  if (std::holds_alternative<RejectFrame>(frame)) ++batch_stats_.rejects_sent;
}

bool IngestServer::update_shed_state() {
  const double latency = daemon_.last_fsync_seconds();
  MutexLock lk(stats_mutex_);
  if (!shedding_ && latency >= options_.shed_fsync_seconds) {
    shedding_ = true;
    ++stats_.shed_entries;
  } else if (shedding_ && latency <= options_.recover_fsync_seconds) {
    shedding_ = false;
  }
  return shedding_;
}

void IngestServer::publish_stats() {
  MutexLock lk(stats_mutex_);
  stats_.messages_ingested += batch_stats_.messages_ingested;
  stats_.duplicates_dropped += batch_stats_.duplicates_dropped;
  stats_.rejects_sent += batch_stats_.rejects_sent;
  stats_.out_of_order_rejects += batch_stats_.out_of_order_rejects;
  stats_.shed_rejects += batch_stats_.shed_rejects;
  stats_.wal_batches += batch_stats_.wal_batches;
  stats_.shutdowns_seen = shutdowns_seen_;
  batch_stats_ = IngestStats{};
}

// One writer drain, three phases. Every cost that a frame needs only once
// per drain is paid once per drain: one encoding per accepted frame, one
// WAL write per segment slice, one fdatasync, one lock to hand back the
// Acks and one to publish the counters.
//
//  1. classify every item in queue order against *tentative* per-peer ack
//     marks — handshakes, duplicates, out-of-order and shed rejections are
//     answered immediately (none of those responses asserts new
//     durability); each frame that will land in the WAL is encoded once,
//     at the back of the batch's run, and those bytes are both its dedup
//     hash and its WAL record;
//  2. append the whole run with ONE fdatasync (Daemon::append_many) — the
//     cumulative Ack means per-frame syncs bought nothing;
//  3. only now advance the real marks, apply each accepted frame to the
//     controller in the same order, and hand all the deferred Acks to the
//     poll thread at once. An Ack{s} still implies everything <= s from
//     that peer is durable. When the run is not durable, phase 3 never
//     runs: the batch throws and the writer stops (writer_loop).
//
// Then the snapshot cadence check and the liveness heartbeat, both at the
// batch boundary: every durable frame has been applied and is covered by
// the marks, which is exactly the invariant a snapshot needs.
void IngestServer::process_batch(std::vector<IngressItem>& items) {
  struct Accepted {
    std::uint64_t conn = 0;
    std::uint64_t seq = 0;
    std::uint64_t* mark = nullptr;  ///< the peer's entry in last_acked_
    bool append = false;  ///< false: dedup hit, already durable
    Frame frame;
  };
  std::vector<Accepted> accepted;
  accepted.reserve(items.size());
  run_.clear();
  // Only this thread changes the shed state, so one read per drain holds
  // until the drain itself updates it.
  bool shedding = this->shedding();
  // Durable marks stay put until phase 3; classification tracks where each
  // peer's cursor *will* be so a Hello or seq check mid-batch sees the
  // items ahead of it in the same drain.
  std::map<std::string, std::uint64_t> tentative;
  const auto tentative_mark = [&](const std::string& peer) -> std::uint64_t& {
    const auto it = tentative.find(peer);
    if (it != tentative.end()) return it->second;
    return tentative.emplace(peer, last_acked_[peer]).first->second;
  };

  for (IngressItem& item : items) {
    if (item.kind == IngressItem::Kind::kGone) {
      sessions_.erase(item.conn);  // last_acked_ survives for the reconnect
      continue;
    }

    // Hello: handshake only, any time, never WAL'd. Re-syncs the session
    // on a reconnect. The immediate Ack names the *durable* mark (never a
    // seq still waiting on this batch's sync); the session cursor pins to
    // the tentative one so in-flight items ahead of the Hello are not
    // re-expected.
    if (const auto* hello = std::get_if<HelloFrame>(&item.frame)) {
      if (hello->version != kProtocolVersion) {
        respond(item.conn,
                RejectFrame{item.seq, RejectCode::kBadHello,
                            "protocol version mismatch"},
                /*close=*/true);
        continue;
      }
      if (hello->fleet_hash != 0 &&
          hello->fleet_hash !=
              fleet_config_hash(daemon_.controller().config())) {
        respond(item.conn,
                RejectFrame{item.seq, RejectCode::kBadHello,
                            "fleet config hash mismatch"},
                /*close=*/true);
        continue;
      }
      Session& s = sessions_[item.conn];
      s.peer = hello->peer;
      s.synced = true;
      s.expected = tentative_mark(s.peer) + 1;
      respond(item.conn, AckFrame{last_acked_[s.peer]}, /*close=*/false);
      continue;
    }

    const auto it = sessions_.find(item.conn);
    if (it == sessions_.end() || !it->second.synced) {
      respond(item.conn,
              RejectFrame{item.seq, RejectCode::kNoHello, "data before hello"},
              /*close=*/true);
      continue;
    }
    Session& session = it->second;

    const FrameKind kind = frame_kind(item.frame);
    if (!is_data_kind(kind) && !is_control_kind(kind)) {
      // Decisions flow out of the daemon, Ack/Reject out of the server; a
      // collector sending one is broken, not unlucky.
      respond(item.conn,
              RejectFrame{item.seq, RejectCode::kUnexpectedFrame,
                          std::string("collectors never send ") +
                              to_string(kind)},
              /*close=*/true);
      continue;
    }

    std::uint64_t& tentative_seq = tentative_mark(session.peer);
    if (item.seq <= tentative_seq) {
      // Retransmission of something already durable (or accepted earlier
      // in this very batch): cumulative re-Ack of the durable mark.
      ++batch_stats_.duplicates_dropped;
      respond(item.conn, AckFrame{last_acked_[session.peer]}, /*close=*/false);
      continue;
    }

    if (item.seq != session.expected) {
      ++batch_stats_.out_of_order_rejects;
      respond(item.conn,
              RejectFrame{item.seq, RejectCode::kOutOfOrder,
                          "resend from the last ack"},
              /*close=*/false);
      continue;
    }

    if (is_data_kind(kind) && shedding) {
      // Nothing is appending while we shed, so nothing would re-measure
      // the disk: probe it (an fsync with no append) and accept this frame
      // after all if the stall has cleared.
      if (!daemon_.probe_wal()) throw_not_durable();
      shedding = update_shed_state();
      if (shedding) {
        // Heartbeat-only mode: the frame is neither appended nor acked, so
        // the collector holds it and retries after backoff — nothing acked
        // is ever shed, nothing shed is ever acked.
        ++batch_stats_.shed_rejects;
        respond(item.conn,
                RejectFrame{item.seq, RejectCode::kShedding,
                            "wal stalled: heartbeat-only"},
                /*close=*/false);
        continue;
      }
    }

    // Accepted. Whether it needs an append (vs. a dedup drop of a frame
    // durable before the crash) is decided now, on the record bytes the
    // append will write; the ack waits for the batch sync either way — an
    // earlier frame of the same peer may be in the pending run, and Acks
    // are cumulative.
    run_.add(item.frame);
    const std::span<const std::uint8_t> record =
        run_.records(run_.size() - 1, run_.size());
    const auto dup = dedup_.find(wire::fnv1a64(record.data(), record.size()));
    const bool append = dup == dedup_.end() || dup->second == 0;
    if (!append) {
      if (--dup->second == 0) dedup_.erase(dup);
      run_.pop_back();
    }
    accepted.push_back(Accepted{item.conn, item.seq, &last_acked_[session.peer],
                                append, std::move(item.frame)});
    tentative_seq = item.seq;
    session.expected = item.seq + 1;
  }

  // Phase 2: one append run, one fdatasync.
  if (!run_.empty()) {
    if (!daemon_.append_many(run_)) throw_not_durable();
    update_shed_state();
    ++batch_stats_.wal_batches;
  }

  // Phase 3: everything in the run is durable — advance the real marks,
  // apply in order, ack. Consecutive Acks to one connection share one
  // response.
  std::vector<Response> acks;
  for (Accepted& acc : accepted) {
    *acc.mark = acc.seq;
    if (acc.append) {
      daemon_.apply_frame(acc.frame);
      ++batch_stats_.messages_ingested;
    } else {
      ++batch_stats_.duplicates_dropped;
    }
    if (acks.empty() || acks.back().conn != acc.conn)
      acks.push_back(Response{acc.conn, {}, /*close=*/false});
    encode_frame_into(AckFrame{acc.seq}, acks.back().bytes);

    // Only newly-appended Shutdowns count: a dedup drop means the frame
    // was in the recovered suffix, and those are already folded into the
    // recovered_shutdowns seed (the dedup multiset holds nothing else).
    if (acc.append && std::holds_alternative<ShutdownFrame>(acc.frame)) {
      ++shutdowns_seen_;
      if (options_.expected_shutdowns > 0 &&
          shutdowns_seen_ >= options_.expected_shutdowns)
        queue_.close();  // drain what is queued, then the loop ends
    }
  }
  if (!acks.empty()) {
    MutexLock lk(response_mutex_);
    responses_.insert(responses_.end(), std::make_move_iterator(acks.begin()),
                      std::make_move_iterator(acks.end()));
  }

  // Batch boundary: the one point where "durable", "applied" and "covered
  // by the marks" all coincide — the snapshot invariant (DESIGN.md §9).
  daemon_.maybe_snapshot();
  ++batches_processed_;
  if (!options_.health_path.empty())
    write_file_atomic(options_.health_path,
                      std::to_string(batches_processed_));
}

void IngestServer::writer_loop() {
  const std::size_t cap =
      options_.max_batch_frames > 0
          ? options_.max_batch_frames
          : (options_.queue_capacity > 0 ? options_.queue_capacity : 1);
  std::vector<IngressItem> batch;
  while (true) {
    std::optional<IngressItem> item = queue_.pop();
    if (!item.has_value()) break;  // closed and drained
    batch.clear();
    batch.push_back(std::move(*item));
    if (cap > 1) queue_.drain(batch, cap - 1);
    bool durable = true;
    try {
      process_batch(batch);
    } catch (const std::exception&) {
      durable = false;
    }
    publish_stats();
    if (!durable) {
      // A WAL append or sync failed, or a decision batch could not be
      // logged: stop here. Nothing of the failed run and nothing queued
      // after it is applied or acked, so every Ack sent still names a
      // durable frame; the restarted daemon recovers from the WAL.
      failed_.store(true);
      queue_.close();
      break;
    }
    wake_poll();
  }
  stop_.store(true);
  wake_poll();
}

// ---------------------------------------------------------------------
// Poll thread: accepts, reads, decodes, quarantines, transmits.

void IngestServer::poll_loop() {
  std::map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;

  const auto quarantine = [&](std::uint64_t id, Conn& conn, RejectCode code,
                              const char* detail) {
    {
      MutexLock lk(stats_mutex_);
      if (code == RejectCode::kOversizedFrame)
        ++stats_.oversized_frames;
      else
        ++stats_.corrupt_frames;
      stats_.bytes_quarantined += conn.in.size();
      ++stats_.rejects_sent;
    }
    // Framing is lost, so the response cannot name a trustworthy seq.
    const std::vector<std::uint8_t> bytes =
        encode_frame(RejectFrame{0, code, detail});
    conn.out.insert(conn.out.end(), bytes.begin(), bytes.end());
    conn.in.clear();
    conn.want_close = true;
    queue_.push(IngressItem{IngressItem::Kind::kGone, id, 0, Frame{}});
  };

  /// Decode as many complete messages as the buffer holds; stop at a torn
  /// tail (wait for bytes), a quarantine (conn closing), or a full queue
  /// (backpressure: stash the item and pause reads). Messages are consumed
  /// by offset and the consumed prefix is erased once, on the way out, so
  /// a stalled item's bytes are left at the front where retry_stalled
  /// expects them.
  const auto drain_inbuf = [&](std::uint64_t id, Conn& conn) {
    std::size_t at = 0;  // start of the first message not yet queued
    const auto consume = [&] {
      conn.in.erase(conn.in.begin(),
                    conn.in.begin() + static_cast<std::ptrdiff_t>(at));
    };
    while (!conn.want_close && conn.in.size() - at >= kEnvelopeHeader) {
      const std::uint8_t* message = conn.in.data() + at;
      const std::uint64_t length = wire::load_u64(message + 8 + 1);
      if (length > options_.max_frame_bytes) {
        consume();
        quarantine(id, conn, RejectCode::kOversizedFrame,
                   "length field over the frame cap");
        return;
      }
      const std::size_t total =
          8 + kFrameHeaderSize + static_cast<std::size_t>(length);
      if (conn.in.size() - at < total) break;  // torn: wait for more bytes
      IngressItem item;
      item.conn = id;
      item.seq = wire::load_u64(message);
      try {
        item.frame = decode_frame(message + 8, total - 8).frame;
      } catch (const std::exception& e) {
        consume();
        quarantine(id, conn, RejectCode::kCorruptFrame, e.what());
        return;
      }
      if (!queue_.try_push(item)) {
        if (queue_.closed()) break;  // shutting down; drop on the floor
        conn.stalled = std::move(item);
        conn.has_stalled = true;
        conn.paused = true;
        MutexLock lk(stats_mutex_);
        ++stats_.backpressure_stalls;
        break;
      }
      at += total;
    }
    consume();
  };

  const auto retry_stalled = [&](std::uint64_t id, Conn& conn) {
    if (!conn.has_stalled) return;
    if (!queue_.try_push(conn.stalled)) {
      if (!queue_.closed()) return;  // still full; stay paused
      conn.has_stalled = false;      // shutting down
      conn.paused = false;
      return;
    }
    const std::uint64_t length = wire::load_u64(conn.in.data() + 8 + 1);
    const std::size_t total =
        8 + kFrameHeaderSize + static_cast<std::size_t>(length);
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(total));
    conn.has_stalled = false;
    conn.paused = false;
    drain_inbuf(id, conn);
  };

  const auto flush_out = [&](Conn& conn) {
    while (!conn.out.empty() && conn.fd >= 0) {
      // MSG_NOSIGNAL: a peer that died mid-reply must surface as EPIPE,
      // not kill the daemon with SIGPIPE.
      const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EAGAIN or a dead peer; poll decides which
      conn.out.erase(conn.out.begin(), conn.out.begin() + n);
    }
  };

  // Queue every pending response first, then send once per connection.
  std::vector<Response> pending;
  const auto dispatch_responses = [&] {
    {
      MutexLock lk(response_mutex_);
      pending.swap(responses_);
    }
    if (pending.empty()) return;
    for (const Response& r : pending) {
      const auto it = conns.find(r.conn);
      if (it == conns.end()) continue;  // conn died before the reply
      it->second.out.insert(it->second.out.end(), r.bytes.begin(),
                            r.bytes.end());
      if (r.close) it->second.want_close = true;
    }
    pending.clear();
    for (auto& [id, conn] : conns)
      if (!conn.out.empty()) flush_out(conn);
  };

  const auto close_conn = [&](std::uint64_t id, Conn& conn, bool notify) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
    if (notify)
      queue_.push(IngressItem{IngressItem::Kind::kGone, id, 0, Frame{}});
  };

  while (!stop_.load()) {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = fixed)
    fds.push_back(pollfd{wake_rd_, POLLIN, 0});
    fd_conn.push_back(0);
    if (unix_fd_ >= 0) {
      fds.push_back(pollfd{unix_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    if (tcp_fd_ >= 0) {
      fds.push_back(pollfd{tcp_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (const auto& [id, conn] : conns) {
      short events = 0;
      if (!conn.paused && !conn.want_close) events |= POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{conn.fd, events, 0});
      fd_conn.push_back(id);
    }

    const int ready = ::poll(fds.data(), fds.size(), kPollMillis);
    if (ready < 0 && errno != EINTR) break;

    // Wake pipe: writer produced responses and/or queue room.
    if (fds[0].revents & POLLIN) {
      std::uint8_t sink[64];
      while (::read(wake_rd_, sink, sizeof(sink)) > 0) {
      }
    }
    dispatch_responses();
    for (auto& [id, conn] : conns) retry_stalled(id, conn);

    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fd_conn[i] == 0) {  // a listener
        while (true) {
          const int cfd =
              ::accept4(fds[i].fd, nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (cfd < 0) break;
          Conn conn;
          conn.fd = cfd;
          conns.emplace(next_conn_id++, std::move(conn));
          MutexLock lk(stats_mutex_);
          ++stats_.connections_accepted;
        }
        continue;
      }

      const auto it = conns.find(fd_conn[i]);
      if (it == conns.end()) continue;
      Conn& conn = it->second;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        flush_out(conn);
        close_conn(it->first, conn, /*notify=*/true);
        continue;
      }
      if (fds[i].revents & POLLOUT) flush_out(conn);
      if (fds[i].revents & POLLIN) {
        std::uint8_t buf[16384];
        bool eof = false;
        while (true) {
          const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
          if (n < 0 && errno == EINTR) continue;
          if (n < 0) break;  // EAGAIN
          if (n == 0) {
            eof = true;
            break;
          }
          conn.in.insert(conn.in.end(), buf, buf + n);
          if (conn.in.size() >= options_.max_frame_bytes) break;
        }
        drain_inbuf(it->first, conn);
        if (eof) close_conn(it->first, conn, /*notify=*/true);
      }
      if (conn.fd >= 0 && conn.want_close && conn.out.empty())
        close_conn(it->first, conn, /*notify=*/false);
    }

    for (auto it = conns.begin(); it != conns.end();)
      it = it->second.fd < 0 ? conns.erase(it) : std::next(it);
  }

  // Final drain: the writer's last Acks (the Shutdown ones included) must
  // reach their collectors before the sockets close.
  for (int round = 0; round < 100; ++round) {
    dispatch_responses();
    bool pending = false;
    {
      MutexLock lk(response_mutex_);
      pending = !responses_.empty();
    }
    for (auto& [id, conn] : conns) {
      flush_out(conn);
      pending = pending || !conn.out.empty();
    }
    if (!pending) break;
    ::poll(nullptr, 0, 10);  // brief pause; peers drain their side
  }
  for (auto& [id, conn] : conns) close_conn(id, conn, /*notify=*/false);
}

}  // namespace vmcw::service
