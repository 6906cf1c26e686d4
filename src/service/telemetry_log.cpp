#include "service/telemetry_log.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "runtime/telemetry.h"
#include "runtime/wire.h"

namespace vmcw::service {

namespace {

using wire::ByteWriter;
using wire::load_u32;
using wire::load_u64;
using wire::read_all;
using wire::write_all;

constexpr char kMagic[8] = {'V', 'M', 'C', 'W', 'T', 'W', 'L', '1'};
// magic + version + fleet-config hash; version 2 appends the base ordinal.
constexpr std::size_t kHeaderSizeV1 = 8 + 4 + 8;
constexpr std::size_t kHeaderSizeV2 = kHeaderSizeV1 + 8;

// Frames per scan batch: small enough that a batch's bytes are still in
// cache when its payloads are parsed after the checksum pass.
constexpr std::size_t kScanBatch = 256;

std::size_t header_size(std::uint32_t version) {
  return version == 2 ? kHeaderSizeV2 : kHeaderSizeV1;
}

struct WalHeader {
  std::uint32_t version = 1;
  std::uint64_t fleet_hash = 0;
  std::uint64_t base_ordinal = 0;  ///< 0 for version-1 files
};

/// Parse the header at the front of a WAL byte image; false when the
/// image does not start with a complete version-1 or version-2 header.
bool parse_header(const std::vector<std::uint8_t>& bytes, WalHeader& out) {
  if (bytes.size() < kHeaderSizeV1 ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return false;
  out.version = load_u32(bytes.data() + 8);
  if ((out.version != 1 && out.version != 2) ||
      bytes.size() < header_size(out.version))
    return false;
  out.fleet_hash = load_u64(bytes.data() + 12);
  out.base_ordinal = out.version == 2 ? load_u64(bytes.data() + 20) : 0;
  return true;
}

bool header_matches(const WalHeader& header, std::uint64_t fleet_hash,
                    std::uint32_t version, std::uint64_t base_ordinal) {
  return header.version == version && header.fleet_hash == fleet_hash &&
         (version != 2 || header.base_ordinal == base_ordinal);
}

/// What a scan of a WAL image's frame region found.
struct FrameScan {
  std::size_t end = 0;       ///< offset just past the last intact frame
  std::uint64_t frames = 0;  ///< intact frames
};

/// Scan the intact frame prefix of a WAL byte image starting at `off`:
/// exactly the frames a decode_frame loop would accept before its first
/// throw. Each batch is walked (kind, length), then checksummed in
/// interleaved lanes, then parsed. Every intact frame is parsed; those
/// whose ordinal (`first_ordinal` + index) is at least `keep_from` are
/// appended to `kept`.
FrameScan scan_frames(const std::vector<std::uint8_t>& bytes, std::size_t off,
                      std::uint64_t first_ordinal, std::uint64_t keep_from,
                      std::vector<Frame>& kept) {
  FrameScan scan{off, 0};
  std::vector<FrameExtent> batch;
  batch.reserve(kScanBatch);
  for (;;) {
    batch.clear();
    walk_frame_extents(bytes.data() + scan.end, bytes.size() - scan.end,
                       kScanBatch, batch);
    const std::size_t intact = first_checksum_mismatch(batch);
    for (std::size_t i = 0; i < intact; ++i) {
      const FrameExtent& extent = batch[i];
      try {
        Frame frame = decode_frame_payload(
            extent.kind, extent.payload,
            static_cast<std::size_t>(extent.length));
        if (first_ordinal + scan.frames >= keep_from)
          kept.push_back(std::move(frame));
      } catch (const std::exception&) {
        return scan;  // a frame decodes cleanly or it is the torn tail
      }
      scan.end += kFrameHeaderSize + static_cast<std::size_t>(extent.length);
      ++scan.frames;
    }
    // A short batch stopped at the end of the image or at a bad frame.
    if (intact < kScanBatch) return scan;
  }
}

/// Read the WAL file at `path` whole, read-only, and parse its header.
/// Throws std::runtime_error when the file cannot be read or does not
/// start with a frame-WAL header.
WalHeader read_wal_file(const std::string& path,
                        std::vector<std::uint8_t>& bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("read_frame_log: cannot open " + path);
  const bool readable = read_all(fd, bytes);
  ::close(fd);
  if (!readable)
    throw std::runtime_error("read_frame_log: cannot read " + path);
  WalHeader header;
  if (!parse_header(bytes, header))
    throw std::runtime_error("read_frame_log: not a frame WAL: " + path);
  return header;
}

std::vector<std::uint8_t> encode_header(std::uint64_t fleet_hash,
                                        std::uint32_t version,
                                        std::uint64_t base_ordinal) {
  ByteWriter header;
  for (const char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(version);
  header.u64(fleet_hash);
  if (version == 2) header.u64(base_ordinal);
  return header.bytes();
}

/// write_all through the hook surface: retries EINTR and short writes the
/// same way wire::write_all does for the real fd path.
bool write_all_hooked(WalIoHooks& hooks, int fd, const std::uint8_t* data,
                      std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const long n = hooks.write_some(fd, data + off, size - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// fdatasync through the hook surface, retrying EINTR.
int sync_hooked(WalIoHooks& hooks, int fd) {
  int rc;
  do {
    rc = hooks.sync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

}  // namespace

long WalIoHooks::write_some(int fd, const std::uint8_t* data,
                            std::size_t size) {
  return static_cast<long>(::write(fd, data, size));
}

int WalIoHooks::sync(int fd) { return ::fdatasync(fd); }

double WalIoHooks::now() {
  // The one sanctioned wall-clock read of the service layer
  // (vmcw_lint.conf): it times fsyncs for the observational latency
  // metric and the ingest stall detector, never decision bytes.
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WalIoHooks& default_wal_io_hooks() {
  static WalIoHooks hooks;  // stateless: real write/fdatasync/clock
  return hooks;
}

FrameLog::~FrameLog() { close(); }

void FrameLog::close() {
  MutexLock lk(mutex_);
  close_locked();
}

void FrameLog::close_locked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FrameLog::Recovery FrameLog::open(const std::string& path,
                                  std::uint64_t fleet_hash, bool resume,
                                  std::uint32_t version,
                                  std::uint64_t base_ordinal,
                                  std::uint64_t keep_from) {
  // open() runs before the log is shared with other threads, but holding
  // the lock throughout keeps fd_'s guard unconditional.
  MutexLock lk(mutex_);
  open_fd_locked(path);
  Recovery rec;
  std::vector<std::uint8_t> bytes;
  const bool readable = read_all(fd_, bytes);

  WalHeader header;
  if (resume && readable && parse_header(bytes, header) &&
      header_matches(header, fleet_hash, version, base_ordinal)) {
    const FrameScan scan = scan_frames(bytes, header_size(version),
                                       base_ordinal, keep_from, rec.frames);
    rec.frame_count = scan.frames;
    rec.torn_tail = scan.end < bytes.size();
    rec.bytes_discarded = bytes.size() - scan.end;
    if (trim_locked(scan.end, bytes.size())) return rec;
    // Cannot trim the torn tail: appending would interleave with garbage,
    // so fall back to a fresh log.
    rec = Recovery{};
  }
  // Not resuming, no log yet, or a stale one (the fleet shape changed
  // since it was written): start clean. Stale frames are never mixed in.
  rec.stale = resume && readable && !bytes.empty();
  rewrite_locked(path, fleet_hash, version, base_ordinal);
  return rec;
}

bool FrameLog::reopen_scanned(const std::string& path,
                              std::uint64_t fleet_hash, std::uint32_t version,
                              std::uint64_t base_ordinal,
                              std::size_t valid_end, std::size_t size) {
  MutexLock lk(mutex_);
  open_fd_locked(path);
  if (trim_locked(valid_end, size)) return true;
  rewrite_locked(path, fleet_hash, version, base_ordinal);
  return false;
}

void FrameLog::open_fd_locked(const std::string& path) {
  close_locked();
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw std::runtime_error("FrameLog: cannot open " + path);
}

/// Cut the file back to its intact prefix and position for append; false
/// when the torn tail cannot be cut.
bool FrameLog::trim_locked(std::size_t valid_end, std::size_t size) {
  if (valid_end < size && ::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0)
    return false;
  ::lseek(fd_, 0, SEEK_END);
  return true;
}

void FrameLog::rewrite_locked(const std::string& path,
                              std::uint64_t fleet_hash, std::uint32_t version,
                              std::uint64_t base_ordinal) {
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
    close_locked();
    throw std::runtime_error("FrameLog: cannot rewrite " + path);
  }
  const std::vector<std::uint8_t> header =
      encode_header(fleet_hash, version, base_ordinal);
  if (!write_all(fd_, header.data(), header.size())) {
    close_locked();
    throw std::runtime_error("FrameLog: cannot write header of " + path);
  }
  ::fdatasync(fd_);
}

void FrameLog::append(const Frame& frame, bool sync) {
  const std::vector<std::uint8_t> record = encode_frame(frame);
  MutexLock lk(mutex_);
  if (fd_ < 0) return;
  if (!write_all_hooked(*hooks_, fd_, record.data(), record.size())) {
    // A failed append (disk full, injected write error) must not corrupt
    // what is already durable: stop logging rather than interleave a
    // partial frame.
    close_locked();
    return;
  }
  if (sync) sync_locked();
}

void FrameLog::sync_locked() {
  if (fd_ < 0) return;
  const double start = hooks_->now();
  sync_hooked(*hooks_, fd_);
  const double elapsed = hooks_->now() - start;
  last_sync_seconds_ = elapsed;
  // One measurement, two consumers: the telemetry sidecars and the
  // ingestion front-end's WAL-stall detector (service/ingest).
  MetricsRegistry::global().observe("service.wal_fsync_seconds", elapsed);
}

void FrameLog::sync() {
  MutexLock lk(mutex_);
  sync_locked();
}

WalContents read_frame_log(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  const WalHeader header = read_wal_file(path, bytes);
  WalContents wal;
  wal.version = header.version;
  wal.fleet_hash = header.fleet_hash;
  wal.base_ordinal = header.base_ordinal;
  const FrameScan scan = scan_frames(bytes, header_size(header.version),
                                     header.base_ordinal, 0, wal.frames);
  wal.torn_tail = scan.end < bytes.size();
  return wal;
}

void walk_frame_extents(const std::uint8_t* data, std::size_t size,
                        std::size_t max_frames,
                        std::vector<FrameExtent>& out) {
  std::size_t off = 0;
  for (std::size_t n = 0; n < max_frames && size - off >= kFrameHeaderSize;
       ++n) {
    const std::uint8_t* header = data + off;
    if (header[0] < static_cast<std::uint8_t>(FrameKind::kHello) ||
        header[0] > static_cast<std::uint8_t>(FrameKind::kReject))
      return;
    const std::uint64_t length = load_u64(header + 1);
    if (size - off - kFrameHeaderSize < length) return;  // torn
    out.push_back({static_cast<FrameKind>(header[0]),
                   header + kFrameHeaderSize, length, load_u64(header + 9)});
    off += kFrameHeaderSize + static_cast<std::size_t>(length);
  }
}

std::size_t first_checksum_mismatch(const std::vector<FrameExtent>& extents) {
  constexpr std::uint64_t kBasis = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  constexpr std::size_t kLanes = 4;
  const std::size_t n = extents.size();
  std::size_t bad = n;
  const auto finish = [&](std::size_t i, std::uint64_t hash) {
    if (hash != extents[i].checksum && i < bad) bad = i;
  };

  // Each lane hashes one frame; a lane that finishes its frame takes the
  // next unstarted one, so lanes stay busy across a mix of lengths.
  struct Lane {
    const std::uint8_t* p;
    std::uint64_t left;  ///< payload bytes still to hash
    std::uint64_t hash;
    std::size_t index;
    bool done;  ///< finished, and no frame was left to take
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
    // Serial tail: the lanes still mid-frame finish one at a time.
    for (const Lane& l : lane)
      if (!l.done) finish(l.index, wire::fnv1a64(l.p, l.left, l.hash));
  }
  for (; next < n; ++next)
    finish(next, wire::fnv1a64(extents[next].payload, extents[next].length));
  return bad;
}

std::string segment_path(const std::string& path, std::size_t index) {
  char suffix[24];
  std::snprintf(suffix, sizeof(suffix), ".seg%06zu", index);
  return path + suffix;
}

namespace {

/// Segment files of the chain rooted at `path`, sorted by index. Paths are
/// rebuilt through segment_path so they compare equal to what the log
/// itself would create or unlink.
std::vector<std::pair<std::size_t, std::string>> list_segments(
    const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const std::string stem =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::string prefix = stem + ".seg";

  std::vector<std::pair<std::size_t, std::string>> out;
  DIR* d = ::opendir(dir.empty() ? "/" : dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() != prefix.size() + 6 ||
        name.compare(0, prefix.size(), prefix) != 0)
      continue;
    std::size_t index = 0;
    bool digits = true;
    for (std::size_t i = prefix.size(); i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') {
        digits = false;
        break;
      }
      index = index * 10 + static_cast<std::size_t>(name[i] - '0');
    }
    if (digits && index > 0) out.emplace_back(index, segment_path(path, index));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

WalContents read_segmented_wal(const std::string& path) {
  const auto files = list_segments(path);
  if (files.empty()) return read_frame_log(path);

  WalContents out;
  bool any = false;
  std::size_t expected_index = 0;
  std::uint64_t expected_base = 0;
  std::vector<std::uint8_t> bytes;
  for (const auto& [index, file] : files) {
    WalHeader header;
    try {
      header = read_wal_file(file, bytes);
    } catch (const std::exception&) {
      break;
    }
    if (header.version != 2) break;
    if (!any) {
      out.fleet_hash = header.fleet_hash;
      out.version = 2;
      out.base_ordinal = header.base_ordinal;
    } else if (header.fleet_hash != out.fleet_hash || index != expected_index ||
               header.base_ordinal != expected_base) {
      break;  // gap, foreign file or base discontinuity: the chain ends here
    }
    any = true;
    const FrameScan scan = scan_frames(bytes, kHeaderSizeV2,
                                       header.base_ordinal, 0, out.frames);
    expected_index = index + 1;
    expected_base = header.base_ordinal + scan.frames;
    out.torn_tail = scan.end < bytes.size();
    if (out.torn_tail) break;  // a torn segment is the tail by definition
  }
  if (!any)
    throw std::runtime_error("read_segmented_wal: no readable segments: " +
                             path);
  return out;
}

SegmentedFrameLog::Recovery SegmentedFrameLog::open(
    const std::string& path, std::uint64_t fleet_hash, bool resume,
    std::uint64_t segment_frames, std::uint64_t keep_from) {
  log_.close();
  path_ = path;
  fleet_hash_ = fleet_hash;
  segment_frames_ = segment_frames;
  sealed_.clear();
  active_index_ = 1;
  active_base_ = 0;
  active_count_ = 0;

  Recovery rec;
  if (segment_frames_ == 0) {
    // Legacy single-file mode: byte-compatible with every pre-segmentation
    // WAL on disk and every test that reads one.
    FrameLog::Recovery r = log_.open(path, fleet_hash, resume, 1, 0, keep_from);
    rec.frames = std::move(r.frames);
    rec.frame_count = r.frame_count;
    rec.stale = r.stale;
    rec.torn_tail = r.torn_tail;
    active_count_ = r.frame_count;
    return rec;
  }

  const auto files = list_segments(path);
  if (!resume) {
    for (const auto& [index, file] : files) ::unlink(file.c_str());
    log_.open(segment_path(path, 1), fleet_hash, false, 2, 0);
    rec.segments = 1;
    return rec;
  }

  // Validate the chain file by file, reading each once; the first
  // violation ends the kept prefix and everything from it onward is
  // unlinked (a sealed segment is immutable, so a bad one means corruption
  // — nothing after it is trustworthy either). Kept segments go on
  // sealed_; the last one becomes the active segment below.
  std::size_t first_bad = files.size();
  std::uint64_t expected_base = 0;
  std::vector<std::uint8_t> bytes;
  std::size_t active_size = 0;      // bytes on disk of the last kept file
  std::size_t active_end = 0;       // ...and the end of its intact prefix
  std::size_t active_first = 0;     // rec.frames index of its first frame
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto& [index, file] = files[i];
    WalHeader header;
    bool ok = true;
    try {
      header = read_wal_file(file, bytes);
    } catch (const std::exception&) {
      ok = false;
    }
    if (ok && header.version != 2) ok = false;
    if (ok && header.fleet_hash != fleet_hash) {
      // A foreign fleet hash on the chain head means the whole chain is
      // stale (the fleet shape changed); later on it is plain corruption.
      if (sealed_.empty()) rec.stale = true;
      ok = false;
    }
    if (ok && !sealed_.empty() &&
        (index != active_index_ + 1 || header.base_ordinal != expected_base))
      ok = false;
    if (!ok) {
      first_bad = i;
      break;
    }
    active_first = rec.frames.size();
    const FrameScan scan = scan_frames(bytes, kHeaderSizeV2,
                                       header.base_ordinal, keep_from,
                                       rec.frames);
    sealed_.push_back({file, header.base_ordinal, scan.frames});
    active_index_ = index;
    active_size = bytes.size();
    active_end = scan.end;
    expected_base = header.base_ordinal + scan.frames;
    if (scan.end < bytes.size()) {
      // A torn tail belongs to the last write; anything after a torn
      // segment was never validly sealed.
      first_bad = i + 1;
      break;
    }
  }
  for (std::size_t i = first_bad; i < files.size(); ++i)
    ::unlink(files[i].second.c_str());

  if (sealed_.empty()) {
    log_.open(segment_path(path, 1), fleet_hash, false, 2, 0);
    rec.segments = 1;
    return rec;
  }

  // Sealed prefix stays closed; the last kept segment reopens for append
  // with its torn tail, if any, truncated away.
  const Segment active = std::move(sealed_.back());
  sealed_.pop_back();
  active_base_ = active.base;
  active_count_ = active.frames;
  rec.torn_tail = active_end < active_size;
  if (!log_.reopen_scanned(active.path, fleet_hash, 2, active_base_,
                           active_end, active_size)) {
    // The tail could not be cut, so the segment was rewritten empty.
    rec.frames.erase(rec.frames.begin() +
                         static_cast<std::ptrdiff_t>(active_first),
                     rec.frames.end());
    active_count_ = 0;
    rec.torn_tail = false;
  }
  rec.base_ordinal = sealed_.empty() ? active_base_ : sealed_.front().base;
  rec.frame_count = next_ordinal() - rec.base_ordinal;
  rec.segments = sealed_.size() + 1;
  return rec;
}

void SegmentedFrameLog::rotate() {
  log_.sync();
  log_.close();
  sealed_.push_back(
      {segment_path(path_, active_index_), active_base_, active_count_});
  ++active_index_;
  active_base_ += active_count_;
  active_count_ = 0;
  log_.open(segment_path(path_, active_index_), fleet_hash_, false, 2,
            active_base_);
}

void SegmentedFrameLog::append(const Frame& frame, bool sync) {
  if (segment_frames_ > 0 && active_count_ >= segment_frames_) rotate();
  log_.append(frame, sync);
  // A hard write error closes the inner log; the frame did not land.
  if (log_.is_open()) ++active_count_;
}

std::size_t SegmentedFrameLog::reclaim_before(std::uint64_t ordinal) {
  std::size_t reclaimed = 0;
  std::vector<Segment> survivors;
  survivors.reserve(sealed_.size());
  for (Segment& seg : sealed_) {
    if (seg.base + seg.frames <= ordinal) {
      ::unlink(seg.path.c_str());
      ++reclaimed;
    } else {
      survivors.push_back(std::move(seg));
    }
  }
  sealed_ = std::move(survivors);
  return reclaimed;
}

}  // namespace vmcw::service
