#include "runtime/record_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "runtime/telemetry.h"
#include "runtime/wire.h"

namespace vmcw {

long WalIoHooks::write_some(int fd, const std::uint8_t* data,
                            std::size_t size) {
  return static_cast<long>(::write(fd, data, size));
}

int WalIoHooks::sync(int fd) { return ::fdatasync(fd); }

double WalIoHooks::now() {
  // The one sanctioned wall-clock read under the durable logs
  // (vmcw_lint.conf): it times syncs for the observational latency metric
  // and the ingest stall detector, never result or decision bytes.
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WalIoHooks& default_wal_io_hooks() {
  static WalIoHooks hooks;  // stateless: real write/fdatasync/clock
  return hooks;
}

std::vector<std::uint8_t> RecordHeader::encode() const {
  wire::ByteWriter out;
  for (std::size_t i = 0; i < 8; ++i)
    out.u8(static_cast<std::uint8_t>(magic[i]));
  out.u32(version);
  for (std::size_t i = 0; i < word_count; ++i) out.u64(words[i]);
  return out.bytes();
}

bool RecordHeader::matches(const std::vector<std::uint8_t>& bytes) const {
  const std::vector<std::uint8_t> expected = encode();
  return bytes.size() >= expected.size() &&
         std::equal(expected.begin(), expected.end(), bytes.begin());
}

bool RecordHeader::read(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < size() || std::memcmp(bytes.data(), magic, 8) != 0)
    return false;
  version = wire::load_u32(bytes.data() + 8);
  for (std::size_t i = 0; i < word_count; ++i)
    words[i] = wire::load_u64(bytes.data() + 12 + 8 * i);
  return true;
}

std::vector<std::uint8_t> encode_record(
    std::uint8_t kind, const std::vector<std::uint8_t>& payload) {
  wire::ByteWriter header;
  header.u8(kind);
  header.u64(payload.size());
  header.u64(wire::fnv1a64(payload.data(), payload.size()));
  std::vector<std::uint8_t> record = header.bytes();
  record.insert(record.end(), payload.begin(), payload.end());
  return record;
}

void walk_record_extents(const std::uint8_t* data, std::size_t size,
                         RecordKinds kinds, std::size_t max_records,
                         std::vector<RecordExtent>& out) {
  std::size_t off = 0;
  for (std::size_t n = 0; n < max_records && size - off >= kRecordHeaderSize;
       ++n) {
    const std::uint8_t* header = data + off;
    if (header[0] < kinds.first || header[0] > kinds.last) return;
    const std::uint64_t length = wire::load_u64(header + 1);
    if (size - off - kRecordHeaderSize < length) return;  // torn
    out.push_back({header[0], header + kRecordHeaderSize, length,
                   wire::load_u64(header + 9)});
    off += kRecordHeaderSize + static_cast<std::size_t>(length);
  }
}

std::size_t first_checksum_mismatch(const std::vector<RecordExtent>& extents) {
  constexpr std::uint64_t kBasis = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  constexpr std::size_t kLanes = 4;
  const std::size_t n = extents.size();
  std::size_t bad = n;
  const auto finish = [&](std::size_t i, std::uint64_t hash) {
    if (hash != extents[i].checksum && i < bad) bad = i;
  };

  // Each lane hashes one record; a lane that finishes its record takes the
  // next unstarted one, so lanes stay busy across a mix of lengths.
  struct Lane {
    const std::uint8_t* p;
    std::uint64_t left;  ///< payload bytes still to hash
    std::uint64_t hash;
    std::size_t index;
    bool done;  ///< finished, and no record was left to take
  };
  std::size_t next = 0;
  if (n >= kLanes) {
    Lane lane[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l, ++next)
      lane[l] = {extents[next].payload, extents[next].length, kBasis, next,
                 false};
    bool drained = false;
    while (!drained) {
      std::uint64_t step = lane[0].left;
      for (std::size_t l = 1; l < kLanes; ++l)
        step = std::min(step, lane[l].left);
      const std::uint8_t* p0 = lane[0].p;
      const std::uint8_t* p1 = lane[1].p;
      const std::uint8_t* p2 = lane[2].p;
      const std::uint8_t* p3 = lane[3].p;
      std::uint64_t h0 = lane[0].hash, h1 = lane[1].hash;
      std::uint64_t h2 = lane[2].hash, h3 = lane[3].hash;
      for (std::uint64_t k = 0; k < step; ++k) {
        h0 = (h0 ^ p0[k]) * kPrime;
        h1 = (h1 ^ p1[k]) * kPrime;
        h2 = (h2 ^ p2[k]) * kPrime;
        h3 = (h3 ^ p3[k]) * kPrime;
      }
      lane[0].hash = h0;
      lane[1].hash = h1;
      lane[2].hash = h2;
      lane[3].hash = h3;
      for (Lane& l : lane) {
        l.p += step;
        l.left -= step;
        // Zero-length payloads finish as soon as they are taken.
        while (l.left == 0 && !l.done) {
          finish(l.index, l.hash);
          if (next == n) {
            l.done = drained = true;
          } else {
            l = {extents[next].payload, extents[next].length, kBasis, next,
                 false};
            ++next;
          }
        }
      }
    }
    // Serial tail: the lanes still mid-record finish one at a time.
    for (const Lane& l : lane)
      if (!l.done) finish(l.index, wire::fnv1a64(l.p, l.left, l.hash));
  }
  for (; next < n; ++next)
    finish(next, wire::fnv1a64(extents[next].payload, extents[next].length));
  return bad;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool readable = wire::read_all(fd, out);
  ::close(fd);
  return readable;
}

RecordLog::~RecordLog() { close(); }

void RecordLog::close() {
  MutexLock lk(mutex_);
  close_locked();
}

void RecordLog::close_locked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool RecordLog::open_fd_locked(const std::string& path) {
  close_locked();
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  return fd_ >= 0;
}

bool RecordLog::open_and_read(const std::string& path,
                              std::vector<std::uint8_t>& bytes) {
  MutexLock lk(mutex_);
  return open_fd_locked(path) && wire::read_all(fd_, bytes);
}

bool RecordLog::trim(std::size_t valid_end, std::size_t size) {
  MutexLock lk(mutex_);
  if (fd_ < 0) return false;
  if (valid_end < size && ::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0)
    return false;
  return ::lseek(fd_, 0, SEEK_END) >= 0;
}

bool RecordLog::reopen(const std::string& path, std::size_t valid_end,
                       std::size_t size) {
  {
    MutexLock lk(mutex_);
    if (!open_fd_locked(path)) return false;
  }
  return trim(valid_end, size);
}

bool RecordLog::create(const std::string& path, const RecordHeader& header) {
  MutexLock lk(mutex_);
  const std::vector<std::uint8_t> bytes = header.encode();
  // The header is written and synced outside the hooks: creating a log is
  // not an append.
  if (!open_fd_locked(path) || ::ftruncate(fd_, 0) != 0 ||
      !wire::write_all(fd_, bytes.data(), bytes.size()) ||
      ::fdatasync(fd_) != 0) {
    close_locked();
    return false;
  }
  return true;
}

bool RecordLog::append(std::span<const std::uint8_t> records, bool sync) {
  MutexLock lk(mutex_);
  if (fd_ < 0) return false;
  std::size_t off = 0;
  while (off < records.size()) {
    const long n = hooks_->write_some(fd_, records.data() + off,
                                      records.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // A failed append (disk full, injected write error) must not corrupt
      // what is already durable: stop logging rather than interleave a
      // partial record.
      close_locked();
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return !sync || sync_locked();
}

bool RecordLog::sync() {
  MutexLock lk(mutex_);
  return sync_locked();
}

bool RecordLog::sync_locked() {
  if (fd_ < 0) return false;
  const double start = hooks_->now();
  const int rc = hooks_->sync(fd_);
  last_sync_seconds_ = hooks_->now() - start;
  if (sync_metric_ != nullptr)
    MetricsRegistry::global().observe(sync_metric_, last_sync_seconds_);
  // After a failed fdatasync the kernel may have dropped the dirty pages
  // and cleared the error, so a retry on this fd could "succeed" over lost
  // data: the log closes instead.
  if (rc != 0) close_locked();
  return rc == 0;
}

}  // namespace vmcw
