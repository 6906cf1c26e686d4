#include "runtime/wire.h"

#include <algorithm>
#include <cerrno>
#include <sys/stat.h>
#include <unistd.h>

namespace vmcw::wire {

bool read_all(int fd, std::vector<std::uint8_t>& out) {
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) return false;
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size > out.capacity()) {
    // pread overwrites every byte, so a reused buffer too small for this
    // file drops its old bytes instead of copying them into the new
    // allocation. It still grows geometrically, as resize() would, so a
    // run of slightly growing files (a WAL chain's segments) reallocates
    // once, not once per file.
    out.clear();
    out.reserve(std::max(size, 2 * out.capacity()));
  }
  out.resize(size);
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + off, out.size() - off,
                              static_cast<off_t>(off));
    if (n < 0 && errno == EINTR) continue;  // signal landed mid-read; retry
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    // A signal (SIGCHLD from a collector fork, a profiler tick) can
    // interrupt write() before any byte moved; a WAL append must survive
    // that, not turn it into a torn record.
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace vmcw::wire
