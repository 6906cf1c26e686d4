#include "trace/generator.h"

#include <algorithm>
#include <cmath>

#include "runtime/thread_pool.h"
#include "trace/app_model.h"
#include "trace/patterns.h"
#include "util/distributions.h"
#include "util/stats.h"

namespace vmcw {

namespace {

constexpr double kMinUtil = 0.001;  // monitoring floor: an idle OS still ticks
constexpr double kMaxUtil = 1.0;
constexpr double kMinMemMb = 64.0;

std::vector<double> generate_cpu_series(const WorkloadSpec& spec,
                                        const CpuClassParams& p,
                                        WorkloadClass klass, double mean_util,
                                        std::size_t hours, Rng& rng,
                                        const AppContext* app) {
  // Per-server character: how diurnal and how spiky is *this* box?
  double peak_mult = p.diurnal_peak_mult;
  if (p.diurnal_dispersion > 0 && peak_mult > 1.0) {
    const auto bump = Lognormal::from_mean_cov(peak_mult - 1.0,
                                               p.diurnal_dispersion);
    peak_mult = 1.0 + bump.sample(rng);
  }
  // Burst activity splits into an app-shared part (arrives via `app`) and a
  // private remainder; the per-server rate dispersion applies to the
  // private part only.
  const double shared_fraction =
      app != nullptr ? std::clamp(spec.shared_burst_fraction, 0.0, 1.0) : 0.0;
  double burst_rate = p.bursts_per_day * (1.0 - shared_fraction);
  if (p.burst_rate_dispersion > 0 && burst_rate > 0) {
    const auto rate = Lognormal::from_mean_cov(burst_rate,
                                               p.burst_rate_dispersion);
    burst_rate = rate.sample(rng);
  }
  double ar1_sigma = p.ar1_sigma;
  if (p.ar1_sigma_dispersion > 0 && ar1_sigma > 0) {
    const auto sigma = Lognormal::from_mean_cov(ar1_sigma,
                                                p.ar1_sigma_dispersion);
    ar1_sigma = std::min(sigma.sample(rng), 0.6);
  }

  // The app's phase offset shifts the whole business window; per-server
  // jitter still applies on top.
  const double app_phase = app != nullptr ? app->phase_offset_hours : 0.0;
  const DiurnalPattern diurnal(
      peak_mult, p.business_start_hour + static_cast<int>(app_phase),
      p.business_end_hour + static_cast<int>(app_phase), p.phase_jitter_hours,
      rng);
  const WeekendPattern weekend(p.weekend_factor);
  const MonthEndPattern month_end(p.month_end_boost, 1);
  const bool batch_shape = klass == WorkloadClass::kBatch && p.batch_intensity > 0;
  const BatchWindowPattern batch(p.batch_start_hour, p.batch_duration_hours,
                                 p.batch_intensity, p.batch_off_level,
                                 p.batch_start_jitter_hours, rng);
  auto bursts =
      generate_burst_train(hours, burst_rate, p.burst_alpha, p.burst_cap_mult,
                           p.burst_mean_duration_hours, rng);
  if (app != nullptr) {
    for (std::size_t t = 0; t < hours && t < app->shared_bursts.size(); ++t)
      bursts[t] += app->shared_bursts[t];
  }
  Ar1Noise noise(p.ar1_rho, ar1_sigma);

  std::vector<double> raw(hours);
  for (std::size_t t = 0; t < hours; ++t) {
    double shape = batch_shape ? batch.at(t) : diurnal.at(t);
    shape *= weekend.at(t) * month_end.at(t);
    const double n = std::max(1.0 + noise.next(rng), 0.05);
    raw[t] = std::max(shape, 0.01) * (1.0 + bursts[t]) * n;
  }
  // Normalize the shape to the server's drawn mean utilization, then clamp
  // to the server's saturation ceiling. Clamping the busiest hours lowers
  // the realized mean slightly — exactly what saturation does to a real
  // server.
  const TruncatedNormal ceiling_dist(spec.util_ceiling_mean,
                                     spec.util_ceiling_sigma, 0.35, kMaxUtil);
  const double ceiling = ceiling_dist.sample(rng);
  const double raw_mean = mean(raw);
  const double k = raw_mean > 0 ? mean_util / raw_mean : 0.0;
  for (double& x : raw) x = std::clamp(x * k, kMinUtil, ceiling);
  return raw;
}

std::vector<double> generate_mem_series(const MemClassParams& p,
                                        const ServerSpec& hw,
                                        std::span<const double> cpu,
                                        Rng& rng) {
  const TruncatedNormal base_frac_dist(p.base_fraction_mean,
                                       p.base_fraction_sigma, 0.02, 0.90);
  const double base_mb = base_frac_dist.sample(rng) * hw.memory_mb;
  const double cpu_mean = std::max(mean(cpu), 1e-6);
  // Per-server coupling: most footprints are dominated by resident
  // code/heap, but a minority (in-memory caches, session stores) track load
  // closely — those are the servers whose memory CoV exceeds 1 in Fig 5.
  const bool linear_coupling = rng.bernoulli(p.linear_coupling_probability);
  const TruncatedNormal coupled_dist(
      linear_coupling ? p.linear_coupled_fraction : p.coupled_fraction,
      linear_coupling ? 0.15 : p.coupled_fraction_sigma, 0.0, 0.95);
  const double c = coupled_dist.sample(rng);
  const AppResourceModel olio;
  Ar1Noise noise(p.ar1_rho, p.ar1_sigma);

  std::vector<double> mem(cpu.size());
  // Load-proportional footprints grow *faster* than CPU under load
  // (per-session buffers x longer sessions under contention; analytic jobs
  // materializing datasets): working set ~ load^1.5. These are the minority
  // of servers whose memory CoV exceeds 1 in Fig 5 (a)/(d).
  constexpr double kHotMemExponent = 1.5;
  for (std::size_t t = 0; t < cpu.size(); ++t) {
    const double cpu_scale = cpu[t] / cpu_mean;
    const double coupled =
        linear_coupling ? std::pow(cpu_scale, kHotMemExponent)
                        : olio.mem_scale_for_cpu_scale(cpu_scale);
    const double level = base_mb * ((1.0 - c) + c * coupled);
    const double n = std::max(1.0 + noise.next(rng), 0.2);
    mem[t] = std::clamp(level * n, kMinMemMb, hw.memory_mb);
  }
  return mem;
}

/// Fleet-wide events land in business hours: market opens, promotions and
/// breaking news surge when users are active — which is also when a
/// consolidated host has the least headroom.
std::vector<double> generate_fleet_events(const WorkloadSpec& spec, Rng& rng) {
  std::vector<double> train(spec.hours, 0.0);
  if (spec.fleet_burst_per_day <= 0.0) return train;
  const BoundedPareto magnitude(1.0, spec.fleet_burst_alpha,
                                std::max(spec.fleet_burst_cap_mult, 1.0));
  const double continue_p =
      spec.fleet_burst_mean_duration_hours > 1.0
          ? 1.0 - 1.0 / spec.fleet_burst_mean_duration_hours
          : 0.0;
  const std::size_t days = spec.hours / kHoursPerDay;
  for (std::size_t day = 0; day < days; ++day) {
    if (!rng.bernoulli(spec.fleet_burst_per_day)) continue;
    const auto start_hour = static_cast<std::size_t>(rng.uniform_int(8, 17));
    std::size_t h = day * kHoursPerDay + start_hour;
    const double add = magnitude.sample(rng) - 1.0;
    do {
      if (h >= spec.hours) break;
      train[h] += add;
      ++h;
    } while (rng.bernoulli(continue_p));
  }
  return train;
}

// One application's carve-up draws from its own keyed stream: its size (the
// caller clips it to the servers left) and class, leaving the stream where
// the app's shared context is drawn.
struct AppDraw {
  int size = 0;
  WorkloadClass klass = WorkloadClass::kWeb;
  Rng rng;
};

AppDraw draw_app(const WorkloadSpec& spec, const Rng& master,
                 std::size_t app_index) {
  AppDraw app;
  app.rng = master.fork(spec.name + "-app-" + std::to_string(app_index));
  const int max_size =
      std::max(static_cast<int>(2.0 * spec.app_size_mean) - 1, 1);
  app.size = static_cast<int>(app.rng.uniform_int(1, max_size));
  app.klass = app.rng.bernoulli(spec.web_fraction) ? WorkloadClass::kWeb
                                                   : WorkloadClass::kBatch;
  return app;
}

}  // namespace

AppContext make_app_context(const WorkloadSpec& spec, WorkloadClass klass,
                            Rng& rng, std::span<const double> fleet_bursts) {
  AppContext app;
  app.klass = klass;
  app.phase_offset_hours =
      spec.app_phase_jitter_hours > 0
          ? rng.uniform(-spec.app_phase_jitter_hours,
                        spec.app_phase_jitter_hours)
          : 0.0;
  const CpuClassParams& p =
      klass == WorkloadClass::kWeb ? spec.web_cpu : spec.batch_cpu;
  const double shared_rate =
      p.bursts_per_day * std::clamp(spec.shared_burst_fraction, 0.0, 1.0);
  app.shared_bursts =
      generate_burst_train(spec.hours, shared_rate, p.burst_alpha,
                           p.burst_cap_mult, p.burst_mean_duration_hours, rng);
  if (klass == WorkloadClass::kWeb) {
    for (std::size_t t = 0;
         t < app.shared_bursts.size() && t < fleet_bursts.size(); ++t)
      app.shared_bursts[t] += fleet_bursts[t];
  }
  return app;
}

ServerTrace generate_server(const WorkloadSpec& spec, WorkloadClass klass,
                            const std::string& id, Rng& rng,
                            const AppContext* app) {
  ServerTrace server;
  server.id = id;
  server.klass = klass;
  server.spec = spec.server_mix.sample(rng);

  // Per-server mean utilization: lognormal around the fleet target, so a
  // fleet mixes nearly idle servers with a busy minority (Fig 1's "<5%
  // average" servers live in the same estate as much hotter ones).
  const auto util_dist = Lognormal::from_mean_cov(spec.target_avg_cpu_util,
                                                  spec.util_dispersion_cov);
  const double mean_util = std::clamp(util_dist.sample(rng), 0.002, 0.60);

  const CpuClassParams& cpu_params =
      klass == WorkloadClass::kWeb ? spec.web_cpu : spec.batch_cpu;
  const MemClassParams& mem_params =
      klass == WorkloadClass::kWeb ? spec.web_mem : spec.batch_mem;

  auto cpu = generate_cpu_series(spec, cpu_params, klass, mean_util,
                                 spec.hours, rng, app);
  auto mem = generate_mem_series(mem_params, server.spec, cpu, rng);
  server.cpu_util = TimeSeries(std::move(cpu));
  server.mem_mb = TimeSeries(std::move(mem));
  return server;
}

EstatePlan plan_estate(const WorkloadSpec& spec, std::uint64_t seed) {
  EstatePlan plan;
  plan.spec = spec;
  Rng root(seed);  // vmcw-lint: allow(rng-construction) root of estate generation
  plan.master = root.fork(spec.name + "/" + spec.industry);
  Rng fleet_rng = plan.master.fork("fleet-events");
  plan.fleet_bursts = generate_fleet_events(spec, fleet_rng);

  const int target = std::max(spec.num_servers, 0);
  int produced = 0;
  while (produced < target) {
    const AppDraw draw = draw_app(spec, plan.master, plan.apps.size());
    EstatePlan::App app;
    app.first_server = static_cast<std::uint32_t>(produced);
    app.servers =
        static_cast<std::uint32_t>(std::min(draw.size, target - produced));
    app.klass = draw.klass;
    plan.apps.push_back(app);
    produced += static_cast<int>(app.servers);
  }
  return plan;
}

std::vector<ServerTrace> generate_servers(const EstatePlan& plan,
                                          std::size_t begin, std::size_t end) {
  const WorkloadSpec& spec = plan.spec;
  end = std::min(end, plan.server_count());
  begin = std::min(begin, end);

  // Apps cover contiguous server ranges, so the range's apps are a
  // contiguous run starting at the app holding `begin`.
  const auto first_app = static_cast<std::size_t>(std::distance(
      plan.apps.begin(),
      std::upper_bound(plan.apps.begin(), plan.apps.end(), begin,
                       [](std::size_t s, const EstatePlan::App& a) {
                         return s < std::size_t{a.first_server} + a.servers;
                       })));
  std::vector<AppContext> contexts;
  std::vector<std::size_t> app_of(end - begin);
  for (std::size_t app = first_app;
       app < plan.apps.size() && plan.apps[app].first_server < end; ++app) {
    AppDraw draw = draw_app(spec, plan.master, app);
    contexts.push_back(
        make_app_context(spec, draw.klass, draw.rng, plan.fleet_bursts));
    const EstatePlan::App& a = plan.apps[app];
    const std::size_t lo = std::max<std::size_t>(a.first_server, begin);
    const std::size_t hi =
        std::min<std::size_t>(std::size_t{a.first_server} + a.servers, end);
    for (std::size_t s = lo; s < hi; ++s) app_of[s - begin] = app;
  }

  // The expensive trace synthesis: every server draws only from its own
  // stream keyed by id, so adding or removing servers does not perturb the
  // others, and each task writes only its own slot.
  std::vector<ServerTrace> servers(end - begin);
  parallel_for(0, servers.size(), [&](std::size_t i) {
    const std::size_t app = app_of[i];
    const std::string id = spec.name + "-srv-" + std::to_string(begin + i + 1);
    Rng server_rng = plan.master.fork(id);
    servers[i] = generate_server(spec, plan.apps[app].klass, id, server_rng,
                                 &contexts[app - first_app]);
    servers[i].app = spec.name + "-app-" + std::to_string(app);
  });
  return servers;
}

Datacenter generate_datacenter(const WorkloadSpec& spec, std::uint64_t seed) {
  Datacenter dc;
  dc.name = spec.name;
  dc.industry = spec.industry;
  const EstatePlan plan = plan_estate(spec, seed);
  dc.servers = generate_servers(plan, 0, plan.server_count());
  return dc;
}

}  // namespace vmcw
