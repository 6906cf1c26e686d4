#include "service/telemetry_log.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

namespace vmcw::service {

namespace {

constexpr char kMagic[8] = {'V', 'M', 'C', 'W', 'T', 'W', 'L', '1'};
constexpr RecordKinds kFrameKinds{
    static_cast<std::uint8_t>(FrameKind::kHello),
    static_cast<std::uint8_t>(FrameKind::kReject)};

/// Version 1 binds the fleet-config hash; version 2, a segment file, adds
/// the base ordinal of its first frame.
RecordHeader wal_header(std::uint64_t fleet_hash, std::uint32_t version,
                        std::uint64_t base_ordinal) {
  return RecordHeader{kMagic, version, version == 2 ? 2u : 1u,
                      {fleet_hash, base_ordinal}};
}

/// Scan decoder: numbers the intact frames from `first_ordinal` and builds
/// those at ordinals >= keep_from into `kept`. The frames below it are only
/// run through payload_decodes(), the decoder's own acceptance rule, so the
/// scan stops at the same frame either way and builds nothing it drops.
auto keep_frames(std::uint64_t first_ordinal, std::uint64_t keep_from,
                 std::vector<Frame>& kept) {
  return [ordinal = first_ordinal, keep_from, &kept](
             std::uint8_t raw_kind, const std::uint8_t* payload,
             std::size_t length) mutable {
    const auto kind = static_cast<FrameKind>(raw_kind);
    if (ordinal++ >= keep_from)
      kept.emplace_back(decode_frame_payload(kind, payload, length));
    else if (!payload_decodes(kind, payload, length))
      throw std::runtime_error("frame WAL: malformed payload");
  };
}

/// Read the WAL file at `path` whole, read-only, and parse its header
/// (words[0] the fleet hash, words[1] the base ordinal, 0 in version 1).
/// Throws std::runtime_error when the file cannot be read or does not
/// start with a frame-WAL header.
RecordHeader read_wal_file(const std::string& path,
                           std::vector<std::uint8_t>& bytes) {
  if (!read_file(path, bytes))
    throw std::runtime_error("read_frame_log: cannot read " + path);
  RecordHeader header = wal_header(0, 1, 0);
  if (header.read(bytes)) {
    if (header.version == 1) return header;
    header.word_count = 2;
    if (header.version == 2 && header.read(bytes)) return header;
  }
  throw std::runtime_error("read_frame_log: not a frame WAL: " + path);
}

}  // namespace

FrameLog::Recovery FrameLog::open(const std::string& path,
                                  std::uint64_t fleet_hash, bool resume,
                                  std::uint32_t version,
                                  std::uint64_t base_ordinal,
                                  std::uint64_t keep_from) {
  Recovery rec;
  const RecordLog::Opened opened =
      log_.open(path, wal_header(fleet_hash, version, base_ordinal), resume,
                kFrameKinds, keep_frames(base_ordinal, keep_from, rec.frames));
  if (!log_.is_open()) throw std::runtime_error("FrameLog: cannot open " + path);
  if (!opened.recovered) rec.frames.clear();
  rec.frame_count = opened.scan.records;
  rec.stale = opened.stale;
  rec.torn_tail = opened.torn_tail;
  rec.bytes_discarded = opened.bytes_discarded;
  return rec;
}

bool FrameLog::create(const std::string& path, std::uint64_t fleet_hash,
                      std::uint32_t version, std::uint64_t base_ordinal) {
  return log_.create(path, wal_header(fleet_hash, version, base_ordinal));
}

WalContents read_frame_log(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  const RecordHeader header = read_wal_file(path, bytes);
  WalContents wal;
  wal.version = header.version;
  wal.fleet_hash = header.words[0];
  wal.base_ordinal = header.words[1];
  const RecordScan scan =
      scan_records(bytes, header.size(), kFrameKinds,
                   keep_frames(wal.base_ordinal, 0, wal.frames));
  wal.torn_tail = scan.end < bytes.size();
  return wal;
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

/// A segment scan_chain kept.
struct ChainLink {
  std::size_t index = 0;       ///< segment file index
  std::uint64_t base = 0;      ///< ordinal of its first frame
  std::size_t size = 0;        ///< its bytes on disk
  std::size_t first_kept = 0;  ///< `kept` index of its first kept frame
  RecordScan scan;             ///< its intact prefix
};

struct Chain {
  std::vector<ChainLink> links;  ///< the valid prefix of the chain files
  std::uint64_t fleet_hash = 0;  ///< the head segment's binding hash
  bool foreign_head = false;     ///< the head is bound to another fleet
};

/// Validate the chain `files` in index order, reading and scanning each
/// once, and return its valid prefix. The chain ends before the first file
/// that is unreadable, not a segment, bound to another fleet than the head
/// (or than `fleet_hash`, when given), out of index order or off the
/// running base ordinal, and right after a torn one: a torn tail belongs
/// to the last write, so nothing after it was ever validly sealed. Frames
/// at ordinals >= keep_from are appended to `kept`.
Chain scan_chain(const std::vector<std::pair<std::size_t, std::string>>& files,
                 std::optional<std::uint64_t> fleet_hash,
                 std::uint64_t keep_from, std::vector<Frame>& kept) {
  Chain chain;
  std::vector<std::uint8_t> bytes;
  for (const auto& [index, file] : files) {
    RecordHeader header;
    try {
      header = read_wal_file(file, bytes);
    } catch (const std::exception&) {
      break;
    }
    if (header.version != 2) break;
    if (chain.links.empty()) {
      chain.foreign_head = fleet_hash && header.words[0] != *fleet_hash;
      if (chain.foreign_head) break;
      chain.fleet_hash = header.words[0];
    } else {
      const ChainLink& prev = chain.links.back();
      if (header.words[0] != chain.fleet_hash || index != prev.index + 1 ||
          header.words[1] != prev.base + prev.scan.records)
        break;
    }
    ChainLink link{index, header.words[1], bytes.size(), kept.size(), {}};
    link.scan = scan_records(bytes, header.size(), kFrameKinds,
                             keep_frames(link.base, keep_from, kept));
    chain.links.push_back(link);
    if (link.scan.end < link.size) break;
  }
  return chain;
}

}  // namespace

WalContents read_segmented_wal(const std::string& path) {
  const auto files = list_segments(path);
  if (files.empty()) return read_frame_log(path);

  WalContents out;
  const Chain chain = scan_chain(files, std::nullopt, 0, out.frames);
  if (chain.links.empty())
    throw std::runtime_error("read_segmented_wal: no readable segments: " +
                             path);
  out.fleet_hash = chain.fleet_hash;
  out.version = 2;
  out.base_ordinal = chain.links.front().base;
  out.torn_tail = chain.links.back().scan.end < chain.links.back().size;
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

  // The first chain violation ends the kept prefix, and every file from it
  // onward is unlinked: a sealed segment is immutable, so a bad one means
  // corruption, and nothing after it is trustworthy either. A foreign
  // fleet hash on the chain head means the whole chain is stale (the fleet
  // shape changed); later on it is plain corruption.
  const auto files = list_segments(path);
  Chain chain;
  if (resume) chain = scan_chain(files, fleet_hash, keep_from, rec.frames);
  rec.stale = chain.foreign_head;
  for (std::size_t i = chain.links.size(); i < files.size(); ++i)
    ::unlink(files[i].second.c_str());
  rec.segments = std::max<std::size_t>(chain.links.size(), 1);
  if (chain.links.empty()) {
    log_.open(segment_path(path, 1), fleet_hash, false, 2, 0);
    return rec;
  }

  // The sealed prefix stays closed; the last kept segment reopens for
  // append with its torn tail, if any, truncated away.
  for (std::size_t i = 0; i + 1 < chain.links.size(); ++i) {
    const ChainLink& link = chain.links[i];
    sealed_.push_back({segment_path(path, link.index), link.base,
                       link.scan.records});
  }
  const ChainLink& active = chain.links.back();
  const std::string active_path = segment_path(path, active.index);
  active_index_ = active.index;
  active_base_ = active.base;
  active_count_ = active.scan.records;
  rec.torn_tail = active.scan.end < active.size;
  if (!log_.log_.reopen(active_path, active.scan.end, active.size)) {
    // The tail cannot be cut: the segment starts over, empty.
    if (!log_.create(active_path, fleet_hash, 2, active_base_))
      throw std::runtime_error("FrameLog: cannot open " + active_path);
    rec.frames.erase(rec.frames.begin() +
                         static_cast<std::ptrdiff_t>(active.first_kept),
                     rec.frames.end());
    active_count_ = 0;
    rec.torn_tail = false;
  }
  rec.base_ordinal = chain.links.front().base;
  rec.frame_count = next_ordinal() - rec.base_ordinal;
  return rec;
}

bool SegmentedFrameLog::rotate() {
  if (!log_.sync()) return false;
  log_.close();
  sealed_.push_back(
      {segment_path(path_, active_index_), active_base_, active_count_});
  ++active_index_;
  active_base_ += active_count_;
  active_count_ = 0;
  return log_.create(segment_path(path_, active_index_), fleet_hash_, 2,
                     active_base_);
}

bool SegmentedFrameLog::append(const EncodedRun& run) {
  for (std::size_t done = 0; done < run.size();) {
    std::size_t take = run.size() - done;
    if (segment_frames_ > 0) {
      if (active_count_ >= segment_frames_ && !rotate()) return false;
      take = static_cast<std::size_t>(
          std::min<std::uint64_t>(take, segment_frames_ - active_count_));
    }
    if (!log_.log_.append(run.records(done, done + take), /*sync=*/false))
      return false;
    active_count_ += take;
    done += take;
  }
  return true;
}

bool SegmentedFrameLog::append(const Frame& frame, bool sync) {
  single_.clear();
  single_.add(frame);
  return append(single_) && (!sync || log_.sync());
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
