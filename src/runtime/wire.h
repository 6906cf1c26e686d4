// Byte-exact wire (de)serialization shared by every durable byte stream in
// the repository: the sweep journal (sweep/journal), the telemetry WAL
// and typed frame protocol (src/service), and any future on-disk format.
//
// The contract all of them rely on:
//  - little-endian fixed-width integers, so files are portable bytes;
//  - doubles as IEEE-754 bit patterns, so a replayed value is bit-identical
//    to the one written (never printf/parse round-trips);
//  - a bounds-checked reader whose every overrun throws, so a torn or
//    corrupt record is detected instead of read past;
//  - FNV-1a 64 as the record checksum.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace vmcw::wire {

/// FNV-1a 64-bit over a byte range; the checksum every framed record uses.
inline std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size,
                             std::uint64_t seed = 1469598103934665603ull) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Little-endian append-only buffer. Doubles are written as IEEE-754 bit
/// patterns so a journaled value replays bit-identically.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Continue at the end of `buf`; take() hands the grown buffer back, so
  /// several encodings can share one allocation.
  explicit ByteWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void vec_u64(const std::vector<std::size_t>& v) {
    u64(v.size());
    for (const std::size_t x : v) u64(x);
  }
  void vec_f64(const std::vector<double>& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }

  const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over one record payload; any overrun throws (the
/// caller treats a throw as a torn/corrupt record).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return data_[need(1)]; }
  std::uint32_t u32() {
    const std::size_t at = need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[at + i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    const std::size_t at = need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[at + i]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    const std::size_t at = need(n);
    return std::string(reinterpret_cast<const char*>(data_ + at), n);
  }
  std::vector<std::size_t> vec_u64() {
    const std::uint64_t n = u64();
    if (n > size_ / 8) throw std::runtime_error("wire: vector overruns");
    std::vector<std::size_t> v(n);
    for (auto& x : v) x = u64();
    return v;
  }
  std::vector<double> vec_f64() {
    const std::uint64_t n = u64();
    if (n > size_ / 8) throw std::runtime_error("wire: vector overruns");
    std::vector<double> v(n);
    for (auto& x : v) x = f64();
    return v;
  }
  bool exhausted() const noexcept { return pos_ == size_; }

 private:
  std::size_t need(std::size_t n) {
    if (size_ - pos_ < n) throw std::runtime_error("wire: short record");
    const std::size_t at = pos_;
    pos_ += n;
    return at;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Read an open fd in full into `out`, replacing its contents (pread from
/// offset 0; the fd's position is left untouched). Returns false when the
/// file cannot be stat'ed or read.
bool read_all(int fd, std::vector<std::uint8_t>& out);

/// write() a buffer in full, retrying short writes. Returns false on error.
bool write_all(int fd, const std::uint8_t* data, std::size_t size);

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

inline void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace vmcw::wire
