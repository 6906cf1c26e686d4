// Streaming estate generation: the fleet without the fleet in RAM.
//
// generate_datacenter materializes every server's full hourly trace — at
// 1M hosts and 30 days that is tens of gigabytes, which is what caps
// estate size today. But the generator splits into a cheap plan
// (plan_estate: the root stream, the fleet burst train, and each app's
// server range and class, ~12 bytes per app) and generate_servers over any
// server range, where every server draws only from its own keyed stream.
// A StreamingEstate keeps the plan and regenerates fixed-size blocks of
// consecutive servers through generate_servers on demand, behind a
// bounded cache, instead of holding the fleet resident. It calls the same
// code generate_datacenter does, so its servers are the same bytes.
//
// The packers and emulator walk the fleet in index order, so block
// locality is the access pattern. The cache evicts least-recently-used
// blocks once resident servers would exceed the configured ceiling.
// Eviction order depends only on the access sequence — no wall clock — so
// a run's generation work is as deterministic as its results.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "trace/generator.h"

namespace vmcw {

class StreamingEstate {
 public:
  struct Options {
    /// Servers generated together when a miss touches their block.
    std::size_t block_servers = 1024;
    /// Cache ceiling: blocks are evicted (LRU) once resident servers
    /// exceed this. At least one block always stays resident.
    std::size_t max_resident_servers = 16384;
  };

  /// Deterministic in (spec, seed) — the same pair generate_datacenter
  /// takes, producing the same servers.
  StreamingEstate(WorkloadSpec spec, std::uint64_t seed, Options options);
  StreamingEstate(WorkloadSpec spec, std::uint64_t seed);

  std::size_t server_count() const noexcept { return plan_.server_count(); }
  std::size_t app_count() const noexcept { return plan_.apps.size(); }
  const WorkloadSpec& spec() const noexcept { return plan_.spec; }

  /// The server's trace, regenerating its block on a cache miss. The
  /// reference stays valid until a later call evicts the block — callers
  /// copy what they keep.
  const ServerTrace& server(std::size_t index);

  /// Cache observability (tests pin the eviction policy; the bench reports
  /// regeneration overhead).
  std::size_t resident_servers() const noexcept;
  std::uint64_t servers_generated() const noexcept { return generated_; }
  std::uint64_t block_hits() const noexcept { return hits_; }
  std::uint64_t block_misses() const noexcept { return misses_; }

 private:
  struct Block {
    std::vector<ServerTrace> servers;
    std::uint64_t last_used = 0;
  };

  Block& ensure_block(std::size_t block);
  void evict_down_to(std::size_t resident_ceiling);

  EstatePlan plan_;
  Options options_;
  std::map<std::size_t, Block> blocks_;  ///< ordered: deterministic walks
  std::uint64_t clock_ = 0;
  std::uint64_t generated_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace vmcw
