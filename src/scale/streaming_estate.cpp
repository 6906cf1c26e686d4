#include "scale/streaming_estate.h"

#include <algorithm>
#include <stdexcept>

namespace vmcw {

StreamingEstate::StreamingEstate(WorkloadSpec spec, std::uint64_t seed)
    : StreamingEstate(std::move(spec), seed, Options{}) {}

StreamingEstate::StreamingEstate(WorkloadSpec spec, std::uint64_t seed,
                                 Options options)
    : plan_(plan_estate(spec, seed)), options_(options) {
  options_.block_servers = std::max<std::size_t>(1, options_.block_servers);
  options_.max_resident_servers =
      std::max(options_.max_resident_servers, options_.block_servers);
}

const ServerTrace& StreamingEstate::server(std::size_t index) {
  if (index >= server_count())
    throw std::out_of_range("StreamingEstate::server: index out of range");
  const std::size_t block = index / options_.block_servers;
  Block& b = ensure_block(block);
  b.last_used = ++clock_;
  return b.servers[index - block * options_.block_servers];
}

StreamingEstate::Block& StreamingEstate::ensure_block(std::size_t block) {
  const auto it = blocks_.find(block);
  if (it != blocks_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;

  const std::size_t begin = block * options_.block_servers;
  const std::size_t end =
      std::min(begin + options_.block_servers, server_count());

  // Make room first so the ceiling bounds peak residency, not post-hoc.
  evict_down_to(options_.max_resident_servers >= (end - begin)
                    ? options_.max_resident_servers - (end - begin)
                    : 0);

  Block fresh;
  fresh.servers = generate_servers(plan_, begin, end);
  generated_ += fresh.servers.size();
  return blocks_.emplace(block, std::move(fresh)).first->second;
}

void StreamingEstate::evict_down_to(std::size_t resident_ceiling) {
  while (!blocks_.empty() && resident_servers() > resident_ceiling) {
    auto oldest = blocks_.begin();
    for (auto it = std::next(blocks_.begin()); it != blocks_.end(); ++it)
      if (it->second.last_used < oldest->second.last_used) oldest = it;
    blocks_.erase(oldest);
  }
}

std::size_t StreamingEstate::resident_servers() const noexcept {
  std::size_t resident = 0;
  for (const auto& [block, b] : blocks_) resident += b.servers.size();
  return resident;
}

}  // namespace vmcw
