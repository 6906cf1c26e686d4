#include "service/churn.h"

#include <cmath>
#include <string>

#include "util/rng.h"

namespace vmcw::service {

namespace {

/// One live VM of the synthetic fleet. Its Rng is a keyed fork of the
/// root, consumed in a fixed order (spawn, then once per tick), so the
/// stream survives arrivals and departures around it unchanged.
struct LiveVm {
  std::uint64_t id = 0;
  std::uint64_t agent = 0;
  Rng rng;
  ResourceVector base;
  double phase_hours = 0.0;
};

constexpr double kTwoPi = 6.283185307179586;

}  // namespace

std::vector<Frame> generate_churn(const ChurnOptions& options,
                                  const ControllerConfig& config) {
  Rng root(options.seed);  // vmcw-lint: allow(rng-construction) root stream of the churn WAL generator
  const std::size_t agents = std::max<std::size_t>(1, options.agents);
  const ResourceVector host_cap = config.pool.capacity_of(0, 1.0);

  std::vector<Frame> frames;
  frames.push_back(
      HelloFrame{kProtocolVersion, fleet_config_hash(config), "churn"});

  std::vector<LiveVm> live;
  std::uint64_t next_id = 1;
  Rng arrivals_rng = root.fork("arrivals");
  Rng blackout_rng = root.fork("blackouts");

  auto spawn = [&](std::uint64_t tick) {
    LiveVm vm;
    vm.id = next_id++;
    vm.agent = vm.id % agents;
    vm.rng = root.fork("vm-" + std::to_string(vm.id));
    const double cpu_frac = options.mean_host_fraction * vm.rng.uniform(0.5, 1.5);
    const double mem_frac = options.mean_host_fraction * vm.rng.uniform(0.5, 1.5);
    vm.base = ResourceVector{host_cap.cpu_rpe2 * cpu_frac,
                             host_cap.memory_mb * mem_frac};
    vm.phase_hours = vm.rng.uniform(0.0, 24.0);
    std::string app;
    if (options.apps > 0)
      app = "app-" + std::to_string(vm.rng.uniform_int(
                         0, static_cast<std::int64_t>(options.apps) - 1));
    frames.push_back(
        VmArrivalFrame{tick, vm.id, app, vm.base.cpu_rpe2, vm.base.memory_mb});
    live.push_back(std::move(vm));
  };

  for (std::uint64_t tick = 1; tick <= options.ticks; ++tick) {
    frames.push_back(HeartbeatFrame{tick});

    // Arrivals: the whole initial population at tick 1, a trickle after.
    std::size_t arriving = options.initial_vms;
    if (tick > 1) {
      arriving = static_cast<std::size_t>(options.arrivals_per_tick);
      const double frac = options.arrivals_per_tick - static_cast<double>(arriving);
      if (arrivals_rng.bernoulli(frac)) ++arriving;
    }
    for (std::size_t i = 0; i < arriving; ++i) spawn(tick);

    // Departures (never on the arrival tick of the initial population).
    if (tick > 1) {
      std::vector<LiveVm> survivors;
      survivors.reserve(live.size());
      for (LiveVm& vm : live) {
        if (vm.rng.bernoulli(options.departure_prob))
          frames.emplace_back(VmDepartureFrame{tick, vm.id});
        else
          survivors.push_back(std::move(vm));
      }
      live = std::move(survivors);
    }

    // Demand: diurnal swing around the base plus per-tick noise, sampled
    // for every live VM in arrival order (fixed Rng consumption), then
    // grouped into per-agent delta frames.
    std::vector<HostTelemetryDeltaFrame> deltas(agents);
    for (std::size_t a = 0; a < agents; ++a) {
      deltas[a].tick = tick;
      deltas[a].agent = a;
    }
    for (LiveVm& vm : live) {
      const double diurnal =
          0.75 + 0.25 * std::sin((static_cast<double>(tick) + vm.phase_hours) *
                                 kTwoPi / 24.0);
      const double noise = vm.rng.uniform(0.85, 1.15);
      deltas[vm.agent].samples.push_back(
          VmSample{vm.id, vm.base.cpu_rpe2 * diurnal * noise,
                   vm.base.memory_mb * (0.9 + 0.1 * diurnal * noise)});
    }
    for (std::size_t a = 0; a < agents; ++a) {
      const bool blackout = blackout_rng.bernoulli(options.blackout_prob);
      if (blackout || deltas[a].samples.empty()) continue;
      frames.push_back(std::move(deltas[a]));
    }

    frames.push_back(FlushFrame{tick});
  }

  frames.push_back(ShutdownFrame{options.ticks + 1});
  return frames;
}

}  // namespace vmcw::service
