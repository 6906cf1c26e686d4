// Synthetic enterprise-trace generator (the proprietary-data substitute).
//
// The paper's traces come from production monitoring of >3000 physical
// Windows servers and cannot be redistributed. This generator synthesizes
// per-server (CPU-utilization, committed-memory) hour series whose
// *distributional* properties match what Section 4 reports per data center:
// peak-to-average and CoV CDFs for CPU and memory (Figs 2-5), and the
// aggregate CPU:memory resource-ratio CDF against the HS23 blade (Fig 6).
//
// Model per server:
//   cpu(t) = m * shape(t) * (1 + bursts(t)) * noise(t)     clamped to [0,1]
// where m is a per-server mean drawn from a lognormal (fleets mix nearly
// idle boxes with busy ones), shape(t) composes diurnal/weekend/month-end
// calendar patterns (web class) or nightly batch windows (batch class),
// bursts(t) is a heavy-tailed Pareto burst train, and noise(t) is
// mean-reverting AR(1).
//
//   mem(t) = base_mb * [(1 - c) + c * olio(cpu(t)/cpu_mean)] * (1+n(t))
// couples memory to CPU through the sub-linear Olio exponent (app_model.h)
// over a large fixed footprint — which is precisely why memory comes out an
// order of magnitude less bursty than CPU (Observation 2).
//
// An estate is generated in two steps that every caller shares:
// plan_estate carves the fleet into applications (cheap, no traces), and
// generate_servers synthesizes any range of its servers. generate_datacenter
// runs them over the whole fleet; scale/streaming_estate runs them block by
// block behind a cache.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hardware/catalog.h"
#include "trace/patterns.h"
#include "trace/server_trace.h"
#include "util/rng.h"

namespace vmcw {

/// CPU-shape parameters for one workload class inside one data center.
struct CpuClassParams {
  // Calendar shape (web class): business-hours bump.
  double diurnal_peak_mult = 4.0;  ///< multiplier at the top of the bump
  /// Per-server dispersion of the bump height (lognormal CoV applied to
  /// peak_mult - 1): real estates mix flat servers with strongly diurnal
  /// ones, which is what spreads the CoV CDFs of Fig 3.
  double diurnal_dispersion = 0.0;
  int business_start_hour = 9;
  int business_end_hour = 18;
  double phase_jitter_hours = 1.5;
  double weekend_factor = 0.6;
  double month_end_boost = 1.0;  ///< >1 enables payroll-style edges

  // Batch shape (batch class); enabled when batch_intensity > 0.
  double batch_intensity = 0.0;  ///< multiplier inside the nightly window
  int batch_start_hour = 1;
  int batch_duration_hours = 4;
  double batch_off_level = 0.25;  ///< multiplier outside the window
  /// Per-server start staggering (+-hours): operators deliberately spread
  /// batch schedules across the night.
  int batch_start_jitter_hours = 2;

  // Heavy-tailed bursts.
  double bursts_per_day = 1.0;
  /// Per-server dispersion of the burst rate (lognormal CoV): only a
  /// fraction of a real fleet is spiky.
  double burst_rate_dispersion = 0.0;
  double burst_alpha = 1.5;      ///< Pareto shape; smaller = heavier tail
  double burst_cap_mult = 25.0;  ///< cap on a single burst's multiplier
  double burst_mean_duration_hours = 1.5;

  // AR(1) noise.
  double ar1_rho = 0.6;
  double ar1_sigma = 0.10;
  /// Per-server dispersion of ar1_sigma (lognormal CoV): spreads the CoV
  /// CDF so only part of the fleet is heavy-tailed.
  double ar1_sigma_dispersion = 0.0;
};

/// Memory-model parameters for one workload class.
struct MemClassParams {
  double base_fraction_mean = 0.45;   ///< committed fraction of installed
  double base_fraction_sigma = 0.12;  ///< dispersion across servers
  double coupled_fraction = 0.15;     ///< share of footprint that tracks CPU
  double coupled_fraction_sigma = 0.0;  ///< per-server dispersion of the above
  /// Probability that a server's coupled footprint tracks load at or above
  /// linearly (in-memory caches, session stores, analytic jobs) instead of
  /// through the sub-linear Olio exponent — the minority of servers with
  /// heavy-tailed memory in Fig 5 (a)/(d).
  double linear_coupling_probability = 0.0;
  /// Mean coupled fraction for that subpopulation (such servers keep most
  /// of their footprint in load-dependent data).
  double linear_coupled_fraction = 0.70;
  double ar1_rho = 0.85;
  double ar1_sigma = 0.02;  ///< relative noise on the footprint
};

/// Full recipe for one synthetic data center.
struct WorkloadSpec {
  std::string name;      ///< "A".."D"
  std::string industry;  ///< "Banking", ...
  int num_servers = 100;
  std::size_t hours = kHoursPerMonth;  ///< 720 = 30 days

  double target_avg_cpu_util = 0.05;  ///< Table 2 "CPU Util" column
  double util_dispersion_cov = 1.0;   ///< lognormal CoV of per-server means

  /// Per-server saturation ceiling on total CPU utilization. Production
  /// boxes rarely reach 100% of all cores even in bursts (single-threaded
  /// components, I/O waits, connection limits): Fig 1's bursty bank servers
  /// average <5% but peak just above 50%. Drawn per server from
  /// N(mean, sigma) truncated to [0.35, 1.0].
  double util_ceiling_mean = 0.65;
  double util_ceiling_sigma = 0.15;
  double web_fraction = 0.5;          ///< share of servers labeled web

  /// Servers belong to applications (the paper labels whole applications
  /// web or batch, and all servers of an application share its class).
  /// Application-level events — a market open, a promotion, a failed batch
  /// rerun — hit every server of the app at once, so a fraction of each
  /// server's burst activity is an app-shared train. This correlation is
  /// what defeats statistical multiplexing on a consolidated host and
  /// produces the contention of Figs 8-9.
  double app_size_mean = 8.0;          ///< mean servers per application
  double shared_burst_fraction = 0.5;  ///< share of burst rate that is app-wide
  double app_phase_jitter_hours = 1.0; ///< app-level diurnal phase offset

  /// Fleet-wide events hitting every *web* server at once (market
  /// open/close at a bank, fare sales at an airline): rare, but they defeat
  /// both statistical multiplexing and windowed prediction, producing the
  /// very high dynamic-consolidation contention of Fig 9. Static variants
  /// are largely immune — with a month of history their peak sizing has
  /// usually seen such an event already.
  double fleet_burst_per_day = 0.0;
  double fleet_burst_alpha = 1.6;
  double fleet_burst_cap_mult = 4.0;
  double fleet_burst_mean_duration_hours = 2.0;

  ServerMix server_mix = default_server_mix();

  CpuClassParams web_cpu;
  CpuClassParams batch_cpu;
  MemClassParams web_mem;
  MemClassParams batch_mem;
};

/// Shared per-application context: class label, diurnal phase, and the
/// app-wide burst train every member server superimposes on its own.
struct AppContext {
  WorkloadClass klass = WorkloadClass::kWeb;
  double phase_offset_hours = 0.0;
  std::vector<double> shared_bursts;  ///< additive multiplier per hour
};

/// Build the shared context for one application. `fleet_bursts` (may be
/// empty) is superimposed for web-class apps.
AppContext make_app_context(const WorkloadSpec& spec, WorkloadClass klass,
                            Rng& rng,
                            std::span<const double> fleet_bursts = {});

/// Generate one server trace (exposed for unit tests / examples).
/// `app` may be nullptr for a standalone server with no shared component.
ServerTrace generate_server(const WorkloadSpec& spec, WorkloadClass klass,
                            const std::string& id, Rng& rng,
                            const AppContext* app = nullptr);

/// The estate's carve-up as data, without any trace: the one root stream
/// `master` (forked from the seed and the spec's name/industry), the
/// fleet-wide burst train web apps superimpose, and each application's
/// contiguous server range and class. Applications are drawn one at a time,
/// each from its own keyed stream `master.fork(name + "-app-" + index)`:
/// size ~ Uniform[1, 2*app_size_mean-1] clipped to the servers left, then
/// the class shared by all of its servers. A plan holds no AppContext, so
/// it costs ~12 bytes per app even for a 1M-host estate.
struct EstatePlan {
  struct App {
    std::uint32_t first_server = 0;
    std::uint32_t servers = 0;
    WorkloadClass klass = WorkloadClass::kWeb;
  };
  WorkloadSpec spec;
  Rng master;
  std::vector<double> fleet_bursts;
  std::vector<App> apps;

  std::size_t server_count() const noexcept {
    return apps.empty() ? 0 : apps.back().first_server + apps.back().servers;
  }
};

/// Plan an estate. Deterministic in (spec, seed).
EstatePlan plan_estate(const WorkloadSpec& spec, std::uint64_t seed);

/// Servers [begin, end) of a planned estate (clipped to its size). Each
/// touched app's shared context is drawn once from the app's stream, after
/// its size and class draws; then every server draws only from its own
/// stream `master.fork(server_id)`, sharded over the pool with each trace
/// written to its own slot. So any range yields the same servers as the
/// whole estate, at any VMCW_THREADS.
std::vector<ServerTrace> generate_servers(const EstatePlan& plan,
                                          std::size_t begin, std::size_t end);

/// Generate the whole fleet: generate_servers over all of plan_estate.
/// Deterministic in (spec, seed).
Datacenter generate_datacenter(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace vmcw
