// Heap allocations on the controller's per-frame paths. Once its buffers
// have grown to the fleet, applying a telemetry delta allocates nothing and
// a tick without arrivals allocates only its decision batch (one exact-size
// block, none when the batch is empty), at 2k residents as at 20k.
//
// The binary replaces the global operator new with a counting one, so it
// is a test binary of its own. Sanitizer runtimes keep intercepting the
// malloc and free underneath.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "hardware/catalog.h"
#include "runtime/thread_pool.h"
#include "service/controller.h"
#include "util/rng.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler never pairs an inlined free() with the new
// expression it came from (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vmcw::service {
namespace {

template <typename F>
std::size_t allocations_in(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

constexpr std::size_t kAgents = 8;
constexpr std::uint64_t kWarmupTicks = 24;
constexpr std::uint64_t kMeasuredTicks = 12;

/// Per-tick allocation counts of a fleet of `residents` VMs: all arrive at
/// tick 1, then every tick each agent reports a noisy sample for its VMs,
/// so envelopes keep moving and repair and drain keep finding work.
struct Counts {
  std::vector<std::size_t> apply;  ///< per measured tick, all deltas
  std::vector<std::size_t> tick;
  std::vector<std::size_t> decisions;
};

Counts run_fleet(std::size_t residents) {
  // One worker, so repair_and_drain's parallel_for runs inline. With more
  // workers each tick also allocates a task per chunk (a count set by the
  // thread count, not the fleet).
  ThreadPool pool(1);
  ScopedPoolOverride use_pool(pool);
  const ServerSpec spec = hs23_elite_blade();
  IncrementalController controller{ControllerConfig{}};
  Rng rng(20141208 + residents);
  std::vector<ResourceVector> base(residents);
  for (std::size_t vm = 0; vm < residents; ++vm) {
    base[vm] = {spec.cpu_rpe2 * rng.uniform(0.02, 0.2),
                spec.memory_mb * rng.uniform(0.02, 0.2)};
    controller.apply(VmArrivalFrame{1, vm, "app-" + std::to_string(vm % 12),
                                    base[vm].cpu_rpe2, base[vm].memory_mb});
  }
  controller.tick(1);

  Counts counts;
  for (std::uint64_t tick = 2; tick <= 1 + kWarmupTicks + kMeasuredTicks;
       ++tick) {
    std::vector<Frame> deltas;
    for (std::size_t agent = 0; agent < kAgents; ++agent) {
      HostTelemetryDeltaFrame delta{tick, agent, {}};
      for (std::size_t vm = agent; vm < residents; vm += kAgents) {
        const double noise = rng.uniform(0.6, 1.4);
        delta.samples.push_back(
            {vm, base[vm].cpu_rpe2 * noise, base[vm].memory_mb * noise});
      }
      deltas.emplace_back(std::move(delta));
    }
    const std::size_t applied = allocations_in([&] {
      for (const Frame& frame : deltas) controller.apply(frame);
    });
    DecisionBatchFrame batch;
    const std::size_t ticked =
        allocations_in([&] { batch = controller.tick(tick); });
    if (tick <= 1 + kWarmupTicks) continue;
    counts.apply.push_back(applied);
    counts.tick.push_back(ticked);
    counts.decisions.push_back(batch.decisions.size());
  }
  EXPECT_EQ(controller.resident_vms(), residents);
  return counts;
}

void expect_only_the_batch(const Counts& counts, std::size_t residents) {
  std::size_t busy = 0;
  for (std::size_t i = 0; i < counts.tick.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << residents << " residents, measured "
                                      << "tick " << i);
    EXPECT_EQ(counts.apply[i], 0u);
    EXPECT_EQ(counts.tick[i], counts.decisions[i] == 0 ? 0u : 1u)
        << counts.decisions[i] << " decisions";
    busy += counts.decisions[i] != 0;
  }
  // The fleet keeps re-planning, so the repair and drain paths ran too.
  EXPECT_GT(busy, 0u) << residents << " residents";
}

TEST(ControllerAllocations, SteadyTicksAllocateOnlyTheirDecisionBatch) {
  expect_only_the_batch(run_fleet(2000), 2000);
}

TEST(ControllerAllocations, PerTickCountDoesNotGrowWithTheFleet) {
  const Counts small = run_fleet(2000);
  const Counts large = run_fleet(20000);
  expect_only_the_batch(large, 20000);
  std::size_t small_max = 0;
  std::size_t large_max = 0;
  for (const std::size_t n : small.tick) small_max = std::max(small_max, n);
  for (const std::size_t n : large.tick) large_max = std::max(large_max, n);
  EXPECT_LE(large_max, small_max);
}

}  // namespace
}  // namespace vmcw::service
