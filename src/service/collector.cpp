#include "service/collector.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>
#include <stdexcept>
#include <utility>

#include "runtime/wire.h"

namespace vmcw::service {

namespace {

using wire::ByteWriter;

std::vector<std::uint8_t> envelope(std::uint64_t seq, const Frame& frame) {
  ByteWriter w;
  w.u64(seq);
  std::vector<std::uint8_t> bytes = w.bytes();
  const std::vector<std::uint8_t> body = encode_frame(frame);
  bytes.insert(bytes.end(), body.begin(), body.end());
  return bytes;
}

// One bounded connect attempt. The socket connects non-blocking: a TCP
// connect still in progress gets response_timeout_ms to finish, and a
// Unix-domain listener whose backlog is full (EAGAIN) fails the attempt
// instead of blocking in the kernel until the server accepts. Returns a
// connected, blocking descriptor, or -1.
int connect_bounded(const CollectorOptions& options) {
  sockaddr_storage addr{};
  socklen_t len = 0;
  if (options.unix_path.empty()) {
    auto* in = reinterpret_cast<sockaddr_in*>(&addr);
    in->sin_family = AF_INET;
    in->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    in->sin_port = htons(static_cast<std::uint16_t>(options.tcp_port));
    len = sizeof(sockaddr_in);
  } else {
    auto* un = reinterpret_cast<sockaddr_un*>(&addr);
    if (options.unix_path.size() >= sizeof(un->sun_path)) return -1;
    un->sun_family = AF_UNIX;
    std::memcpy(un->sun_path, options.unix_path.c_str(),
                options.unix_path.size() + 1);
    len = sizeof(sockaddr_un);
  }
  const int fd =
      ::socket(addr.ss_family, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), len) == 0;
  if (!ok && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    int error = 0;
    socklen_t error_len = sizeof(error);
    ok = ::poll(&pfd, 1, options.response_timeout_ms) == 1 &&
         ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_len) == 0 &&
         error == 0;
  }
  if (ok) ok = ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK) == 0;
  if (!ok) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// write_all for sockets: MSG_NOSIGNAL so a server that quarantined this
// connection (and closed it) surfaces as EPIPE — a reconnect — instead of
// a fatal SIGPIPE.
bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

void backoff_sleep(std::uint64_t attempt, const CollectorOptions& options) {
  const std::uint64_t ms = reconnect_backoff_ms(
      attempt, options.backoff_base_ms, options.backoff_cap_ms);
  if (ms > 0) ::usleep(static_cast<useconds_t>(ms * 1000));
}

}  // namespace

std::uint64_t reconnect_backoff_ms(std::uint64_t attempt,
                                   std::uint64_t base_ms,
                                   std::uint64_t cap_ms) noexcept {
  if (base_ms == 0) return 0;
  if (attempt >= 63) return cap_ms;
  const std::uint64_t scaled = base_ms << attempt;
  if ((scaled >> attempt) != base_ms) return cap_ms;  // overflowed
  return std::min(scaled, cap_ms);
}

CollectorClient::CollectorClient(CollectorOptions options,
                                 TransportFaults* faults)
    : options_(std::move(options)), faults_(faults) {}

CollectorClient::~CollectorClient() {
  if (fd_ >= 0) ::close(fd_);
}

CollectorStats CollectorClient::run(const std::vector<Frame>& frames) {
  CollectorStats stats;
  const std::uint64_t total = frames.size();

  // Coalescing mutates queued (never-sent) frames, so it works on a copy.
  const bool coalesce = options_.coalesce_telemetry;
  std::vector<Frame> stream;
  if (coalesce) stream.assign(frames.begin(), frames.end());

  // Messages are sequenced up front: frame i travels as seq i+1, always,
  // so a retransmission is byte-identical to the original send and the
  // server's cumulative ack is a plain index into this stream.
  std::vector<std::vector<std::uint8_t>> messages;
  messages.reserve(frames.size());
  for (std::uint64_t i = 0; i < total; ++i)
    messages.push_back(envelope(i + 1, coalesce ? stream[i] : frames[i]));

  HelloFrame hello;
  hello.fleet_hash = options_.fleet_hash;
  hello.peer = options_.peer;
  const std::vector<std::uint8_t> hello_message = envelope(0, hello);

  std::uint64_t acked = 0;     // cumulative: messages 1..acked are durable
  std::uint64_t cursor = 0;    // next message index to send on this conn
  std::uint64_t max_sent = 0;  // highest seq ever written (retransmit stat)
  std::uint64_t wire_count = 0;  // fault-plan coordinate
  std::size_t attempt = 0;       // consecutive failures; progress resets
  bool hello_acked = false;
  bool connected_before = false;
  std::vector<std::uint8_t> respbuf;

  // Write one message, letting the fault hooks corrupt, split, or cut the
  // connection. Returns false when the connection is no longer usable.
  const auto send_message = [&](const std::vector<std::uint8_t>& bytes) {
    std::vector<std::uint8_t> out = bytes;
    const std::uint64_t m = wire_count++;
    if (faults_ != nullptr && faults_->corrupt_message(m) && !out.empty()) {
      out[faults_->corrupt_byte(m, out.size()) % out.size()] ^= 0xff;
      ++stats.faults_injected;
    }
    bool ok = true;
    if (faults_ != nullptr && faults_->split_write(m) && out.size() >= 2) {
      const std::size_t at =
          std::clamp<std::size_t>(faults_->split_point(m, out.size()), 1,
                                  out.size() - 1);
      ok = send_all(fd_, out.data(), at) &&
           send_all(fd_, out.data() + at, out.size() - at);
      ++stats.faults_injected;
    } else {
      ok = send_all(fd_, out.data(), out.size());
    }
    ++stats.messages_sent;
    if (faults_ != nullptr && faults_->disconnect_after(m)) {
      ++stats.faults_injected;
      return false;
    }
    return ok;
  };

  // Merge superseded telemetry in the unsent backlog [max_sent, total):
  // scanning newest-first, a VM's first sighting wins and every older
  // queued sample for it is dropped, then the touched messages re-encode.
  // Frames at or below max_sent are never rewritten — a resend must stay
  // byte-identical for the server's crash-recovery dedup filter.
  const auto coalesce_backlog = [&] {
    if (!coalesce) return;
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = total; i-- > max_sent;) {
      auto* delta = std::get_if<HostTelemetryDeltaFrame>(&stream[i]);
      if (delta == nullptr) continue;
      const std::size_t before = delta->samples.size();
      const auto kept = std::remove_if(
          delta->samples.begin(), delta->samples.end(),
          [&](const VmSample& s) { return !seen.insert(s.vm).second; });
      delta->samples.erase(kept, delta->samples.end());
      if (delta->samples.size() != before) {
        stats.samples_coalesced += before - delta->samples.size();
        messages[i] = envelope(i + 1, stream[i]);
      }
    }
  };

  const auto drop_conn = [&] {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    cursor = acked;  // in-flight messages died with the connection
    hello_acked = false;
    respbuf.clear();
    coalesce_backlog();  // disconnected: the backlog will sit a while
  };

  const auto fail = [&](const char* why) {
    ++attempt;
    if (attempt > options_.max_attempts)
      throw std::runtime_error(std::string("collector: retry budget "
                                           "exhausted: ") +
                               why);
    backoff_sleep(attempt, options_);
  };

  while (acked < total) {
    // -- (re)connect + handshake --------------------------------------
    if (fd_ < 0) {
      fd_ = connect_bounded(options_);
      if (fd_ < 0) {
        fail("connect refused");
        continue;
      }
      if (connected_before) ++stats.reconnects;
      connected_before = true;
      if (!send_message(hello_message)) {
        drop_conn();
        fail("hello write failed");
        continue;
      }
    }

    // -- fill the window ----------------------------------------------
    if (hello_acked) {
      bool conn_died = false;
      while (cursor < total && cursor - acked < options_.window) {
        if (cursor + 1 <= max_sent) ++stats.retransmits;
        if (!send_message(messages[cursor])) {
          conn_died = true;
          break;
        }
        ++cursor;
        max_sent = std::max(max_sent, cursor);
      }
      if (conn_died) {
        drop_conn();
        fail("connection lost mid-send");
        continue;
      }
    }

    // -- wait for responses -------------------------------------------
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, options_.response_timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      // Nothing for response_timeout_ms with messages outstanding: the
      // server (or the pipe) is gone; resend from the last ack.
      drop_conn();
      fail("response timeout");
      continue;
    }

    std::uint8_t buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      drop_conn();
      fail("connection closed");
      continue;
    }
    respbuf.insert(respbuf.end(), buf, buf + n);

    // -- apply every complete response --------------------------------
    bool backoff_needed = false;
    const char* backoff_why = "";
    std::size_t at = 0;
    while (at < respbuf.size()) {
      DecodedFrame decoded;
      try {
        decoded = decode_frame(respbuf.data() + at, respbuf.size() - at);
      } catch (const std::exception&) {
        break;  // torn response tail: wait for more bytes
      }
      at += decoded.consumed;

      if (const auto* ack = std::get_if<AckFrame>(&decoded.frame)) {
        if (!hello_acked) {
          // The first Ack on a (re)connection is the handshake reply: the
          // server's authoritative durable mark. It can sit *below* what
          // we saw acked before — a daemon restarted from a snapshot whose
          // marks trail our history — and then we must rewind and resend;
          // holding our old mark would loop on out-of-order rejects
          // forever. Resends below the server's true durable point are
          // safe: it re-acks or dedups, never double-appends.
          hello_acked = true;
          const std::uint64_t mark = std::min(ack->seq, total);
          if (mark < acked) {
            ++stats.server_rewinds;
            acked = mark;
          } else if (mark > acked) {
            acked = mark;
            attempt = 0;  // progress: reset the failure budget
          }
          cursor = acked;
          continue;
        }
        if (ack->seq > acked) {
          acked = std::min(ack->seq, total);
          attempt = 0;  // progress: reset the failure budget
        }
        cursor = std::max(cursor, acked);
        continue;
      }
      if (const auto* rej = std::get_if<RejectFrame>(&decoded.frame)) {
        if (reject_is_transient(rej->code)) {
          if (rej->code == RejectCode::kShedding)
            ++stats.shed_backoffs;
          else
            ++stats.transient_rejects;
          // One backoff per burst: a window's worth of rejects rewinds
          // once, then the next round trip retries.
          if (cursor != acked || !backoff_needed) {
            cursor = acked;
            backoff_needed = true;
            backoff_why = to_string(rej->code);
          }
          continue;
        }
        if (rej->code == RejectCode::kCorruptFrame ||
            rej->code == RejectCode::kOversizedFrame) {
          // Framing is lost; the server is closing this connection.
          drop_conn();
          backoff_needed = true;
          backoff_why = to_string(rej->code);
          break;
        }
        throw std::runtime_error(std::string("collector: fatal reject: ") +
                                 to_string(rej->code) +
                                 (rej->detail.empty() ? "" : ": ") +
                                 rej->detail);
      }
      throw std::runtime_error("collector: server sent a non-response frame");
    }
    respbuf.erase(respbuf.begin(),
                  respbuf.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(at, respbuf.size())));
    if (backoff_needed) {
      coalesce_backlog();  // backing off: merge what will wait anyway
      fail(backoff_why);
    }
  }

  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  return stats;
}

std::vector<std::vector<Frame>> partition_stream(
    const std::vector<Frame>& frames, std::size_t collectors,
    std::size_t agents) {
  if (collectors == 0) collectors = 1;
  if (agents == 0) agents = 1;
  std::vector<std::vector<Frame>> parts(collectors);
  std::uint64_t last_tick = 0;

  for (const Frame& frame : frames) {
    std::size_t to = 0;
    bool keep = true;
    std::visit(
        [&](const auto& f) {
          using T = std::decay_t<decltype(f)>;
          if constexpr (std::is_same_v<T, HelloFrame>) {
            keep = false;  // sessions carry their own handshake
          } else if constexpr (std::is_same_v<T, ShutdownFrame>) {
            keep = false;  // each partition ends with its own
            last_tick = std::max(last_tick, f.tick);
          } else if constexpr (std::is_same_v<T, HostTelemetryDeltaFrame>) {
            to = static_cast<std::size_t>(f.agent) % collectors;
            last_tick = std::max(last_tick, f.tick);
          } else if constexpr (std::is_same_v<T, VmArrivalFrame> ||
                               std::is_same_v<T, VmDepartureFrame>) {
            // The churn generator samples VM vm through agent vm % agents
            // (service/churn), so routing by that agent keeps each VM's
            // arrival/telemetry/departure order within one collector.
            to = (static_cast<std::size_t>(f.vm) % agents) % collectors;
            last_tick = std::max(last_tick, f.tick);
          } else {
            to = 0;  // Heartbeat / Flush: the tick spine rides together
            if constexpr (std::is_same_v<T, HeartbeatFrame> ||
                          std::is_same_v<T, FlushFrame>)
              last_tick = std::max(last_tick, f.tick);
          }
        },
        frame);
    if (keep) parts[to].push_back(frame);
  }
  for (std::vector<Frame>& part : parts)
    part.emplace_back(ShutdownFrame{last_tick});
  return parts;
}

}  // namespace vmcw::service
