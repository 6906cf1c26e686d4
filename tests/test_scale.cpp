// Tests for the fleet-scale planning subsystem (src/scale): the
// CapacityIndex filter's equivalence with the linear first-fit scan,
// and streaming estate generation's byte-identity with the materialized
// generator.

#include "core/capacity_index.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/binpack.h"
#include "core/emulator.h"
#include "core/settings.h"
#include "runtime/thread_pool.h"
#include "scale/streaming_estate.h"
#include "test_helpers.h"
#include "topology/failure_domains.h"
#include "trace/generator.h"
#include "util/rng.h"

namespace vmcw {
namespace {

using testing::small_fleet;
using testing::small_settings;

// ---------------------------------------------------------------------------
// CapacityIndex: the filter must agree with the linear scan it replaces.

/// Reference: first host >= from passing the exact capacity predicate.
std::size_t linear_first_fit(const std::vector<ResourceVector>& capacity,
                             const std::vector<ResourceVector>& load,
                             const ResourceVector& need, std::size_t from) {
  for (std::size_t h = from; h < capacity.size(); ++h)
    if ((load[h] + need).fits_within(capacity[h])) return h;
  return CapacityIndex::npos;
}

/// The caller-side protocol: index candidates re-tested exactly, advancing
/// past false positives — the admission loop in miniature.
std::size_t indexed_first_fit(const CapacityIndex& index,
                              const std::vector<ResourceVector>& capacity,
                              const std::vector<ResourceVector>& load,
                              const ResourceVector& need, std::size_t from) {
  while (from < capacity.size()) {
    const std::size_t h = index.first_fit(need, from);
    if (h == CapacityIndex::npos || h >= capacity.size())
      return CapacityIndex::npos;
    if ((load[h] + need).fits_within(capacity[h])) return h;
    from = h + 1;
  }
  return CapacityIndex::npos;
}

TEST(CapacityIndex, MatchesLinearScanOnRandomFleets) {
  Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    const std::size_t hosts = 1 + static_cast<std::size_t>(
                                      rng.uniform_int(1, 200));
    std::vector<ResourceVector> capacity(hosts);
    std::vector<ResourceVector> load(hosts);
    CapacityIndex index;
    for (std::size_t h = 0; h < hosts; ++h) {
      capacity[h] = {rng.uniform(100.0, 50000.0), rng.uniform(1000.0, 2e5)};
      index.push_host(capacity[h]);
      // Loads from empty to overfull, including exact-fit edges.
      load[h] = {capacity[h].cpu_rpe2 * rng.uniform(0.0, 1.2),
                 capacity[h].memory_mb * rng.uniform(0.0, 1.2)};
      if (rng.bernoulli(0.1)) load[h] = capacity[h];  // exactly full
      index.set_load(h, load[h]);
    }
    for (int trial = 0; trial < 200; ++trial) {
      const ResourceVector need{rng.uniform(0.0, 60000.0),
                                rng.uniform(0.0, 2.5e5)};
      const std::size_t from =
          static_cast<std::size_t>(rng.uniform_int(0, 2 * hosts)) / 2;
      EXPECT_EQ(indexed_first_fit(index, capacity, load, need, from),
                linear_first_fit(capacity, load, need, from))
          << "round " << round << " trial " << trial;
    }
  }
}

TEST(CapacityIndex, StaysExactThroughPlaceEvictCycles) {
  Rng rng(7);
  const std::size_t hosts = 64;
  std::vector<ResourceVector> capacity(hosts);
  std::vector<ResourceVector> load(hosts);
  CapacityIndex index;
  for (std::size_t h = 0; h < hosts; ++h) {
    capacity[h] = {10000.0, 65536.0};
    index.push_host(capacity[h]);
  }
  for (int step = 0; step < 2000; ++step) {
    const std::size_t h =
        static_cast<std::size_t>(rng.uniform_int(0, hosts - 1));
    const ResourceVector delta{rng.uniform(0.0, 4000.0),
                               rng.uniform(0.0, 20000.0)};
    if (rng.bernoulli(0.5)) {
      load[h] = load[h] + delta;
    } else {
      load[h] = {std::max(0.0, load[h].cpu_rpe2 - delta.cpu_rpe2),
                 std::max(0.0, load[h].memory_mb - delta.memory_mb)};
    }
    // set_load re-derives the leaf from the authoritative accumulator, so
    // no drift accumulates over arbitrarily many cycles.
    index.set_load(h, load[h]);
    const ResourceVector need{rng.uniform(0.0, 12000.0),
                              rng.uniform(0.0, 70000.0)};
    EXPECT_EQ(indexed_first_fit(index, capacity, load, need, 0),
              linear_first_fit(capacity, load, need, 0));
  }
}

TEST(CapacityIndex, BulkRefillAnswersLikeHostByHostBuilds) {
  // One index refilled in bulk again and again, over fleets that grow and
  // shrink, against a fresh index built host by host for each fleet.
  Rng rng(1208);
  CapacityIndex refilled;
  for (int round = 0; round < 30; ++round) {
    const auto hosts = static_cast<std::size_t>(rng.uniform_int(0, 300));
    std::vector<ResourceVector> capacity(hosts);
    std::vector<ResourceVector> load(hosts);
    CapacityIndex built;
    for (std::size_t h = 0; h < hosts; ++h) {
      capacity[h] = {rng.uniform(100.0, 50000.0), rng.uniform(1000.0, 2e5)};
      load[h] = {capacity[h].cpu_rpe2 * rng.uniform(0.0, 1.2),
                 capacity[h].memory_mb * rng.uniform(0.0, 1.2)};
      if (rng.bernoulli(0.1)) load[h] = capacity[h];  // exactly full
      built.push_host(capacity[h]);
      built.set_load(h, load[h]);
    }
    refilled.assign(load, [&](std::size_t h) { return capacity[h]; });
    ASSERT_EQ(refilled.size(), hosts);
    for (int trial = 0; trial < 200; ++trial) {
      const ResourceVector need{rng.uniform(0.0, 60000.0),
                                rng.uniform(0.0, 2.5e5)};
      const std::size_t from =
          static_cast<std::size_t>(rng.uniform_int(0, 2 * hosts + 1)) / 2;
      EXPECT_EQ(refilled.first_fit(need, from), built.first_fit(need, from))
          << "round " << round << " trial " << trial;
    }
    // Admission keeps a refilled index in sync the same way: push opened
    // hosts, set loads.
    for (int step = 0; step < 8; ++step) {
      const ResourceVector cap{rng.uniform(100.0, 50000.0),
                               rng.uniform(1000.0, 2e5)};
      const ResourceVector used{cap.cpu_rpe2 * rng.uniform(0.0, 1.0),
                                cap.memory_mb * rng.uniform(0.0, 1.0)};
      for (CapacityIndex* index : {&refilled, &built}) {
        index->push_host(cap);
        index->set_load(index->size() - 1, used);
      }
      const ResourceVector need{rng.uniform(0.0, 60000.0),
                                rng.uniform(0.0, 2.5e5)};
      EXPECT_EQ(refilled.first_fit(need), built.first_fit(need))
          << "round " << round << " step " << step;
    }
  }
}

TEST(CapacityIndex, EmptyAndOutOfRangeQueries) {
  CapacityIndex index;
  EXPECT_EQ(index.first_fit({1.0, 1.0}), CapacityIndex::npos);
  index.push_host({100.0, 100.0});
  EXPECT_EQ(index.first_fit({1.0, 1.0}, 5), CapacityIndex::npos);
  EXPECT_EQ(index.first_fit({1.0, 1.0}, 0), 0u);
  EXPECT_EQ(index.first_fit({1000.0, 1.0}, 0), CapacityIndex::npos);
}

// ---------------------------------------------------------------------------
// Admission equivalence: the indexed path must produce the same placements
// as the linear scan, decision for decision.

std::string placement_fingerprint(const Placement& placement,
                                  const std::vector<ResourceVector>& load) {
  std::string fp;
  char buffer[96];
  for (std::size_t vm = 0; vm < placement.vm_count(); ++vm) {
    std::snprintf(buffer, sizeof(buffer), "%d;", placement.host_of(vm));
    fp += buffer;
  }
  for (const auto& l : load) {
    std::snprintf(buffer, sizeof(buffer), "%a,%a;", l.cpu_rpe2, l.memory_mb);
    fp += buffer;
  }
  return fp;
}

TEST(IndexedAdmission, MatchesLinearScanOnRandomSequences) {
  const StudySettings settings;
  const HostPool pool = HostPool::uniform(settings.target);
  const double bound = settings.dynamic_utilization_bound;
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    const std::size_t n = 120;
    std::vector<ResourceVector> sizes(n);
    for (auto& s : sizes) {
      s = {rng.uniform(10.0, settings.target.cpu_rpe2 * 0.7),
           rng.uniform(100.0, settings.target.memory_mb * 0.7)};
      // A few oversized items exercise the not-placeable path on both
      // sides equally.
      if (rng.bernoulli(0.02)) s.cpu_rpe2 = settings.target.cpu_rpe2 * 2;
    }
    ConstraintSet constraints(n);
    for (int i = 0; i < 8; ++i) {
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      const auto b = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      if (a != b) constraints.add_anti_affinity(a, b);
    }
    constraints.pin(static_cast<std::size_t>(rng.uniform_int(0, n - 1)), 3);

    Placement linear_placement(n);
    std::vector<ResourceVector> linear_load;
    Placement indexed_placement(n);
    std::vector<ResourceVector> indexed_load;
    CapacityIndex index;
    for (std::size_t vm = 0; vm < n; ++vm) {
      AdmissionOptions linear_options;
      const auto a = admit_one(vm, sizes[vm], linear_load, pool, bound,
                               constraints, linear_placement, linear_options);
      AdmissionOptions indexed_options;
      indexed_options.index = &index;
      const auto b = admit_one(vm, sizes[vm], indexed_load, pool, bound,
                               constraints, indexed_placement,
                               indexed_options);
      ASSERT_EQ(a.has_value(), b.has_value()) << "vm " << vm;
      if (a) {
        EXPECT_EQ(*a, *b) << "vm " << vm;
      }
    }
    EXPECT_EQ(placement_fingerprint(indexed_placement, indexed_load),
              placement_fingerprint(linear_placement, linear_load));
    EXPECT_EQ(index.size(), indexed_load.size());
  }
}

TEST(IndexedAdmission, RespectsExcludeAndFrozenHosts) {
  const StudySettings settings;
  const HostPool pool = HostPool::uniform(settings.target);
  const double bound = settings.dynamic_utilization_bound;
  const std::size_t n = 40;
  std::vector<ResourceVector> sizes(
      n, {settings.target.cpu_rpe2 * 0.3, settings.target.memory_mb * 0.3});
  const ConstraintSet constraints(n);
  const std::vector<std::uint8_t> frozen{1, 0, 1, 0};

  Placement linear_placement(n);
  std::vector<ResourceVector> linear_load;
  Placement indexed_placement(n);
  std::vector<ResourceVector> indexed_load;
  CapacityIndex index;
  for (std::size_t vm = 0; vm < n; ++vm) {
    AdmissionOptions linear_options;
    linear_options.exclude_host = 1;
    linear_options.frozen_hosts = frozen;
    AdmissionOptions indexed_options = linear_options;
    indexed_options.index = &index;
    const auto a = admit_one(vm, sizes[vm], linear_load, pool, bound,
                             constraints, linear_placement, linear_options);
    const auto b = admit_one(vm, sizes[vm], indexed_load, pool, bound,
                             constraints, indexed_placement, indexed_options);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b);
    EXPECT_NE(*a, 0u);
    EXPECT_NE(*a, 1u);
    EXPECT_NE(*a, 2u);
  }
  EXPECT_EQ(placement_fingerprint(indexed_placement, indexed_load),
            placement_fingerprint(linear_placement, linear_load));
}

TEST(IndexedAdmission, RepairAndDrainMatchesLinearScan) {
  const StudySettings settings;
  const HostPool pool = HostPool::uniform(settings.target);
  const double bound = settings.dynamic_utilization_bound;
  Rng rng(4242);
  const std::size_t n = 150;
  std::vector<ResourceVector> sizes(n);
  for (auto& s : sizes)
    s = {rng.uniform(10.0, settings.target.cpu_rpe2 * 0.5),
         rng.uniform(100.0, settings.target.memory_mb * 0.5)};
  const ConstraintSet constraints(n);

  // Cram VMs far past the bound so repair has real work, and leave a few
  // nearly empty hosts so drain does too.
  const std::size_t hosts = 30;
  Placement placement(n);
  std::vector<ResourceVector> load(hosts);
  for (std::size_t vm = 0; vm < n; ++vm) {
    const std::size_t host = vm < n - 3 ? vm % (hosts / 3) : hosts - 1 - vm % 3;
    placement.assign(vm, static_cast<std::int32_t>(host));
    load[host] = load[host] + sizes[vm];
  }

  Placement linear_placement = placement;
  std::vector<ResourceVector> linear_load = load;
  RepairWorkspace linear_workspace;
  const RepairOutcome& linear =
      repair_and_drain(linear_workspace, sizes, linear_placement, linear_load,
                       pool, bound, 0.2, constraints);

  Placement indexed_placement = placement;
  std::vector<ResourceVector> indexed_load = load;
  CapacityIndex index;
  for (std::size_t h = 0; h < indexed_load.size(); ++h) {
    index.push_host(pool.capacity_of(h, bound));
    index.set_load(h, indexed_load[h]);
  }
  RepairWorkspace indexed_workspace;
  const RepairOutcome& indexed =
      repair_and_drain(indexed_workspace, sizes, indexed_placement,
                       indexed_load, pool, bound, 0.2, constraints, {}, &index);

  EXPECT_FALSE(linear.repair_moves.empty());
  ASSERT_EQ(indexed.repair_moves.size(), linear.repair_moves.size());
  for (std::size_t i = 0; i < linear.repair_moves.size(); ++i) {
    EXPECT_EQ(indexed.repair_moves[i].vm, linear.repair_moves[i].vm);
    EXPECT_EQ(indexed.repair_moves[i].from, linear.repair_moves[i].from);
    EXPECT_EQ(indexed.repair_moves[i].to, linear.repair_moves[i].to);
  }
  ASSERT_EQ(indexed.drain_moves.size(), linear.drain_moves.size());
  for (std::size_t i = 0; i < linear.drain_moves.size(); ++i)
    EXPECT_EQ(indexed.drain_moves[i].to, linear.drain_moves[i].to);
  EXPECT_EQ(indexed.unresolved_hosts, linear.unresolved_hosts);
  EXPECT_EQ(indexed.drained_hosts, linear.drained_hosts);
  EXPECT_EQ(placement_fingerprint(indexed_placement, indexed_load),
            placement_fingerprint(linear_placement, linear_load));
}

/// FNV-1a over every RepairOutcome field and the final host of every VM.
std::uint64_t repair_outcome_hash(const RepairOutcome& out,
                                  const Placement& placement) {
  using testing::fnv1a;
  std::uint64_t h = testing::kFnvBasis;
  for (const auto* moves : {&out.repair_moves, &out.drain_moves}) {
    h = fnv1a(h, moves->size(), 8);
    for (const PlacementMove& m : *moves) {
      h = fnv1a(h, m.vm, 8);
      h = fnv1a(h, static_cast<std::uint32_t>(m.from), 4);
      h = fnv1a(h, static_cast<std::uint32_t>(m.to), 4);
    }
  }
  for (const auto* hosts : {&out.unresolved_hosts, &out.drained_hosts}) {
    h = fnv1a(h, hosts->size(), 8);
    for (const std::size_t host : *hosts) h = fnv1a(h, host, 8);
  }
  for (std::size_t vm = 0; vm < placement.vm_count(); ++vm)
    h = fnv1a(h, static_cast<std::uint32_t>(placement.host_of(vm)), 4);
  return h;
}

// The controller sends no affinity or pins, so this pins which VMs
// repair_and_drain treats as movable under them: affinity pairs (one with a
// partner past the placement), pinned singletons, a constraint set shorter
// than the placement (its uncovered VMs are singletons) and a spread rule
// that binds the re-admissions.
TEST(IndexedAdmission, RepairAndDrainGoldenUnderConstraints) {
  const StudySettings settings;
  const HostPool pool = HostPool::uniform(settings.target);
  const double bound = settings.dynamic_utilization_bound;
  const std::size_t n = 150;
  const std::size_t hosts = 30;
  struct Case {
    std::uint64_t seed;
    bool short_set;
    std::uint64_t golden;
  };
  const Case cases[] = {{11, false, 0x2105715dd1bbd3e2ULL},
                        {11, true, 0x5d95fac5f95a26d6ULL},
                        {14, false, 0xc7d84b015367df98ULL},
                        {15, false, 0xb9f0347f44756b76ULL},
                        {15, true, 0x69a2d08a31c20e6bULL}};
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "seed " << c.seed << " short_set "
                                    << c.short_set);
    Rng rng(c.seed);
    std::vector<ResourceVector> sizes(n);
    for (std::size_t vm = 0; vm < n; ++vm) {
      const double scale = vm < n - 9 ? 0.3 : 0.04;
      sizes[vm] = {rng.uniform(10.0, settings.target.cpu_rpe2 * scale),
                   rng.uniform(100.0, settings.target.memory_mb * scale)};
    }
    // VMs below n - 9 overload hosts 0-9; the last nine sit three apiece on
    // the light hosts 27, 28 and 29.
    Placement placement(n);
    std::vector<ResourceVector> load(hosts);
    for (std::size_t vm = 0; vm < n; ++vm) {
      const std::size_t host = vm < n - 9 ? vm % 10 : 27 + (vm - (n - 9)) / 3;
      placement.assign(vm, static_cast<std::int32_t>(host));
      load[host] = load[host] + sizes[vm];
    }

    ConstraintSet constraints(c.short_set ? n - 20 : n);
    for (int pair = 0; pair < 6; ++pair) {  // same-host partners
      const auto vm = static_cast<std::size_t>(rng.uniform_int(0, 39));
      constraints.add_affinity(vm, vm + 10 * (1 + pair % 3));
    }
    constraints.pin(3, 3);
    if (!c.short_set) {
      constraints.add_affinity(n - 9, n + 2);  // movable: partner is past n
      constraints.pin(n - 6, 28);              // host 28 cannot drain
      constraints.add_affinity(n - 3, n - 2);  // nor can host 29
    }
    DomainLookup domains;
    for (std::int32_t h = 0; h < 40; ++h) domains.table.push_back(h / 2);
    domains.tail_base = 40;
    domains.tail_first_domain = 20;
    domains.tail_hosts_per_domain = 2;
    std::vector<std::size_t> replicas;
    for (std::size_t vm = 40; vm < 50; ++vm) replicas.push_back(vm);
    constraints.add_domain_spread(std::move(replicas), domains, 1);

    Placement linear_placement = placement;
    std::vector<ResourceVector> linear_load = load;
    RepairWorkspace linear_workspace;
    const RepairOutcome& linear =
        repair_and_drain(linear_workspace, sizes, linear_placement,
                         linear_load, pool, bound, 0.2, constraints);

    Placement indexed_placement = placement;
    std::vector<ResourceVector> indexed_load = load;
    CapacityIndex index;
    for (std::size_t h = 0; h < indexed_load.size(); ++h) {
      index.push_host(pool.capacity_of(h, bound));
      index.set_load(h, indexed_load[h]);
    }
    RepairWorkspace indexed_workspace;
    const RepairOutcome& indexed = repair_and_drain(
        indexed_workspace, sizes, indexed_placement, indexed_load, pool, bound,
        0.2, constraints, {}, &index);

    EXPECT_FALSE(linear.repair_moves.empty());
    EXPECT_EQ(repair_outcome_hash(linear, linear_placement), c.golden);
    EXPECT_EQ(repair_outcome_hash(indexed, indexed_placement), c.golden);
  }
}

// ---------------------------------------------------------------------------
// StreamingEstate: byte-identity with generate_datacenter, bounded cache.

void expect_same_server(const ServerTrace& streamed, const ServerTrace& full,
                        std::size_t index) {
  EXPECT_EQ(streamed.id, full.id) << "server " << index;
  EXPECT_EQ(streamed.app, full.app) << "server " << index;
  EXPECT_EQ(streamed.klass, full.klass) << "server " << index;
  EXPECT_EQ(streamed.spec.model, full.spec.model) << "server " << index;
  ASSERT_EQ(streamed.cpu_util.size(), full.cpu_util.size());
  ASSERT_EQ(streamed.mem_mb.size(), full.mem_mb.size());
  for (std::size_t h = 0; h < full.cpu_util.size(); ++h) {
    // Exact double equality: the streamed path replays the same draws.
    ASSERT_EQ(streamed.cpu_util[h], full.cpu_util[h])
        << "server " << index << " hour " << h;
    ASSERT_EQ(streamed.mem_mb[h], full.mem_mb[h])
        << "server " << index << " hour " << h;
  }
}

TEST(StreamingEstate, ByteIdenticalToMaterializedGeneration) {
  const WorkloadSpec spec = scaled_down(banking_spec(), 96, 72);
  const Datacenter full = generate_datacenter(spec, 42);

  StreamingEstate::Options options;
  options.block_servers = 16;
  options.max_resident_servers = 32;  // forces eviction mid-walk
  StreamingEstate estate(spec, 42, options);

  ASSERT_EQ(estate.server_count(), full.servers.size());
  for (std::size_t i = 0; i < full.servers.size(); ++i)
    expect_same_server(estate.server(i), full.servers[i], i);
  // The forward walk evicted early blocks; walking backward regenerates
  // them and must reproduce the same bytes again.
  for (std::size_t i = full.servers.size(); i-- > 0;)
    expect_same_server(estate.server(i), full.servers[i], i);
  EXPECT_GT(estate.block_misses(), estate.server_count() / 16)
      << "backward walk should have missed evicted blocks";
}

TEST(StreamingEstate, CacheStaysBounded) {
  const WorkloadSpec spec = scaled_down(banking_spec(), 128, 48);
  StreamingEstate::Options options;
  options.block_servers = 16;
  options.max_resident_servers = 48;
  StreamingEstate estate(spec, 7, options);
  for (std::size_t i = 0; i < estate.server_count(); ++i) {
    estate.server(i);
    EXPECT_LE(estate.resident_servers(), options.max_resident_servers);
  }
  EXPECT_EQ(estate.block_hits() + estate.block_misses(),
            estate.server_count());
  EXPECT_EQ(estate.servers_generated(),
            estate.block_misses() * options.block_servers);
}

TEST(StreamingEstate, RepeatedAccessHitsCache) {
  const WorkloadSpec spec = scaled_down(banking_spec(), 32, 48);
  StreamingEstate estate(spec, 7);  // default cache holds everything
  for (int pass = 0; pass < 3; ++pass)
    for (std::size_t i = 0; i < estate.server_count(); ++i) estate.server(i);
  EXPECT_EQ(estate.block_misses(), 1u);  // 32 servers, one 1024-block
  EXPECT_EQ(estate.servers_generated(), 32u);
}

}  // namespace
}  // namespace vmcw
