// One durable record log: the append-only, checksummed file under both the
// sweep journal (sweep/journal) and the daemon's frame WAL and decision log
// (service/telemetry_log).
//
// A log file is a binding header followed by records:
//
//   header   8-byte magic | u32 version | binding words, u64 each
//   record   u8 kind | u64 payload length | u64 FNV-1a 64 of the payload |
//            payload
//
// The header binds the file to one configuration (a sweep grid, a fleet
// shape, a segment's base ordinal): a file whose header differs is stale
// and is rewritten, never mixed in. What the records mean belongs to the
// wrapper, which names its valid kinds and supplies the payload decoder.
//
// Recovery reads the file once and keeps exactly the records a
// one-at-a-time decode loop would accept. The scan walks a batch of record
// headers, verifies the batch's checksums in four interleaved FNV-1a lanes,
// then hands each payload to the wrapper's decoder, which builds it or
// only checks that it decodes; the scan stops at the first unknown kind,
// overlong length, checksum mismatch or payload that does not decode.
// That torn tail is truncated away, or the file is rewritten empty when it
// cannot be. The decoder is a template parameter: the scan makes no
// indirect call per record.
//
// Appends and syncs go through WalIoHooks, so the chaos layer can inject
// short writes, EINTR, write errors, failed syncs and fsync stalls under
// every writer. Each returns a status. A failed write or sync closes the
// log: what is on disk stays an intact prefix plus at most one detectably
// torn record, and a failed fdatasync is never retried on the same
// descriptor, whose dirty pages the kernel may already have dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace vmcw {

/// Pluggable file-I/O + clock surface under record-log appends. The
/// default implementation is the real thing (::write / ::fdatasync / a
/// monotonic clock); the chaos layer substitutes hooks that inject partial
/// writes, EINTR, write errors, failed syncs and fsync stalls on a
/// deterministic schedule (chaos/io_faults). `now()` only times syncs: the
/// latency is observational (metrics and the ingest shed watermark) and
/// never reaches result or decision bytes.
class WalIoHooks {
 public:
  virtual ~WalIoHooks() = default;

  /// write(2) semantics: bytes written, or -1 with errno set. May write
  /// short; RecordLog retries short writes and EINTR.
  virtual long write_some(int fd, const std::uint8_t* data, std::size_t size);

  /// fdatasync(2) semantics: 0 on success, -1 with errno set.
  virtual int sync(int fd);

  /// Monotonic seconds; only used to measure sync() latency.
  virtual double now();
};

/// The process-default hooks instance (real I/O).
WalIoHooks& default_wal_io_hooks();

/// Bytes of the header in front of every record's payload.
inline constexpr std::size_t kRecordHeaderSize = 1 + 8 + 8;

/// Records per scan batch: small enough that a batch's bytes are still in
/// cache when its payloads are decoded after the checksum pass.
inline constexpr std::size_t kRecordScanBatch = 256;

/// The record kinds one log accepts: [first, last].
struct RecordKinds {
  std::uint8_t first = 1;
  std::uint8_t last = 1;
};

/// The binding header of a log file.
struct RecordHeader {
  const char* magic = nullptr;  ///< 8 bytes, no terminator
  std::uint32_t version = 0;
  std::size_t word_count = 0;  ///< binding words on disk, at most 2
  std::uint64_t words[2] = {0, 0};

  std::size_t size() const noexcept { return 8 + 4 + 8 * word_count; }
  std::vector<std::uint8_t> encode() const;
  /// Does `bytes` start with exactly this header?
  bool matches(const std::vector<std::uint8_t>& bytes) const;
  /// Fill version and `word_count` words from the front of `bytes`; false
  /// when the image is shorter than that or its magic is not this one.
  bool read(const std::vector<std::uint8_t>& bytes);
};

/// Frame `payload` as one record of `kind`.
std::vector<std::uint8_t> encode_record(std::uint8_t kind,
                                        const std::vector<std::uint8_t>& payload);

/// One record's place in a byte image, as its header declares it.
struct RecordExtent {
  std::uint8_t kind = 0;
  const std::uint8_t* payload = nullptr;
  std::uint64_t length = 0;    ///< payload bytes
  std::uint64_t checksum = 0;  ///< FNV-1a 64 the header declares
};

/// Append to `out` the extents of up to `max_records` records from the
/// front of [data, data+size), stopping before the first whose kind is not
/// in `kinds` or whose payload runs past the buffer (a torn record).
/// Payloads are not looked at.
void walk_record_extents(const std::uint8_t* data, std::size_t size,
                         RecordKinds kinds, std::size_t max_records,
                         std::vector<RecordExtent>& out);

/// Index of the first extent whose payload does not hash to its checksum,
/// or extents.size() when all match — the same answer as a serial
/// wire::fnv1a64 loop. The hashes run in four interleaved FNV-1a chains,
/// one record per chain, so one record's multiplies overlap another's
/// instead of each byte waiting on the last.
std::size_t first_checksum_mismatch(const std::vector<RecordExtent>& extents);

/// What a scan of a log image's record region found.
struct RecordScan {
  std::size_t end = 0;        ///< offset just past the last intact record
  std::uint64_t records = 0;  ///< intact records
};

/// Scan the intact record prefix of `bytes` from `offset`, handing each
/// intact record to `decode(kind, payload, length)` in order. A decoder
/// that throws marks its record as the torn tail.
template <class Decode>
RecordScan scan_records(const std::vector<std::uint8_t>& bytes,
                        std::size_t offset, RecordKinds kinds,
                        Decode&& decode) {
  RecordScan scan{offset, 0};
  std::vector<RecordExtent> batch;
  batch.reserve(kRecordScanBatch);
  for (;;) {
    batch.clear();
    walk_record_extents(bytes.data() + scan.end, bytes.size() - scan.end,
                        kinds, kRecordScanBatch, batch);
    const std::size_t intact = first_checksum_mismatch(batch);
    for (std::size_t i = 0; i < intact; ++i) {
      const RecordExtent& record = batch[i];
      const auto length = static_cast<std::size_t>(record.length);
      try {
        decode(record.kind, record.payload, length);
      } catch (const std::exception&) {
        return scan;  // a record decodes cleanly or it is the torn tail
      }
      scan.end += kRecordHeaderSize + length;
      ++scan.records;
    }
    // A short batch stopped at the end of the image or at a bad record.
    if (intact < kRecordScanBatch) return scan;
  }
}

/// Read the file at `path` whole, read-only; false when it cannot be
/// opened or read.
bool read_file(const std::string& path, std::vector<std::uint8_t>& out);

/// Append-side handle on one log file. Thread-safe: appends from several
/// threads serialize, and each append, one record or a run, lands with one
/// write per segment.
class RecordLog {
 public:
  /// What open() found.
  struct Opened {
    RecordScan scan;      ///< the intact prefix, when recovered
    bool recovered = false;  ///< the prefix was kept and appends follow it
    bool stale = false;      ///< an existing file with another header
    bool torn_tail = false;  ///< trailing partial/corrupt record dropped
    std::size_t bytes_discarded = 0;  ///< size of the discarded tail
  };

  /// `sync_metric`, when set, names the MetricsRegistry histogram every
  /// sync's latency is recorded into.
  explicit RecordLog(const char* sync_metric = nullptr)
      : sync_metric_(sync_metric) {}
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Open (creating if needed) the log at `path`. With `resume` and a file
  /// that starts with `header`, its records are scanned through `decode`,
  /// a torn tail is truncated and appends follow the intact prefix.
  /// Otherwise — not resuming, no file yet, another header, or a tail that
  /// cannot be cut — the file is rewritten as `header` alone, and the
  /// caller discards whatever `decode` collected (`recovered` is false).
  /// The log is left closed (is_open() false) when the file cannot be
  /// opened or rewritten.
  template <class Decode>
  Opened open(const std::string& path, const RecordHeader& header,
              bool resume, RecordKinds kinds, Decode&& decode)
      VMCW_EXCLUDES(mutex_) {
    Opened out;
    std::vector<std::uint8_t> bytes;
    if (resume && open_and_read(path, bytes)) {
      if (header.matches(bytes)) {
        out.scan = scan_records(bytes, header.size(), kinds, decode);
        out.torn_tail = out.scan.end < bytes.size();
        out.bytes_discarded = bytes.size() - out.scan.end;
        if (trim(out.scan.end, bytes.size())) {
          out.recovered = true;
          return out;
        }
        out = Opened{};
      }
      // A stale file (the configuration changed since it was written), or
      // a tail that cannot be cut: start clean. Stale records are never
      // mixed in, and appends after garbage would interleave with it.
      out.stale = !bytes.empty();
    }
    create(path, header);
    return out;
  }

  /// Open for append a file whose intact prefix [0, valid_end) of `size`
  /// bytes the caller has just scanned, so it is not read again: the torn
  /// tail past valid_end, if any, is truncated away. Returns false when
  /// the file cannot be opened or the tail cannot be cut.
  bool reopen(const std::string& path, std::size_t valid_end,
              std::size_t size) VMCW_EXCLUDES(mutex_);

  /// Create or truncate the file at `path` to `header` alone, synced.
  /// Returns false, with the log closed, when that fails.
  bool create(const std::string& path, const RecordHeader& header)
      VMCW_EXCLUDES(mutex_);

  /// Append framed records (encode_record), one or a run of them back to
  /// back, with a single write; with `sync`, fdatasync them before
  /// returning. Short writes and EINTR are retried. Returns false when the
  /// log is closed or the write or sync failed, which closes it: the file
  /// then ends in an intact prefix plus at most one torn record.
  bool append(std::span<const std::uint8_t> records, bool sync)
      VMCW_EXCLUDES(mutex_);

  /// fdatasync everything appended so far; false when the log is closed or
  /// the sync failed, which closes it.
  bool sync() VMCW_EXCLUDES(mutex_);

  void close() VMCW_EXCLUDES(mutex_);

  bool is_open() const VMCW_EXCLUDES(mutex_) {
    MutexLock lk(mutex_);
    return fd_ >= 0;
  }

  /// Install I/O hooks (nullptr restores the real default). Call before
  /// sharing the log across threads; the pointer itself is unguarded.
  void set_io_hooks(WalIoHooks* hooks) noexcept {
    hooks_ = hooks != nullptr ? hooks : &default_wal_io_hooks();
  }

  /// Latency of the most recent sync (seconds); 0 before the first.
  double last_sync_seconds() const VMCW_EXCLUDES(mutex_) {
    MutexLock lk(mutex_);
    return last_sync_seconds_;
  }

 private:
  /// Open `path` for read-write (creating it) and read it whole; false
  /// when it cannot be read (the fd may still be open).
  bool open_and_read(const std::string& path, std::vector<std::uint8_t>& bytes)
      VMCW_EXCLUDES(mutex_);
  /// Cut the open file back to [0, valid_end) of `size` bytes and
  /// position for append; false when the tail cannot be cut.
  bool trim(std::size_t valid_end, std::size_t size) VMCW_EXCLUDES(mutex_);
  bool open_fd_locked(const std::string& path) VMCW_REQUIRES(mutex_);
  bool sync_locked() VMCW_REQUIRES(mutex_);
  void close_locked() VMCW_REQUIRES(mutex_);

  mutable Mutex mutex_;
  int fd_ VMCW_GUARDED_BY(mutex_) = -1;
  double last_sync_seconds_ VMCW_GUARDED_BY(mutex_) = 0.0;
  WalIoHooks* hooks_ = &default_wal_io_hooks();
  const char* sync_metric_;
};

}  // namespace vmcw
