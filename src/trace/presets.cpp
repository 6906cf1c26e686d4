#include "trace/presets.h"

#include <array>
#include <stdexcept>
#include <string>

namespace vmcw {

namespace {

// Server mixes (weights over source_server_models(), small -> large).
// Banking runs scale-out web tiers on many small boxes; Airlines runs
// reservation/booking systems on memory-rich midrange boxes.
constexpr std::array<double, 6> kBankingMix = {0.18, 0.52, 0.20, 0.07, 0.02, 0.01};
constexpr std::array<double, 6> kAirlinesMix = {0.03, 0.00, 0.15, 0.37, 0.33, 0.12};
constexpr std::array<double, 6> kNatResMix = {0.10, 0.00, 0.30, 0.35, 0.18, 0.07};
constexpr std::array<double, 6> kBeverageMix = {0.25, 0.22, 0.31, 0.14, 0.05, 0.03};

}  // namespace

// Each name is move-assigned from a constructed string: GCC 12 at -O3
// inlines assignment from a one-letter literal and reports a false
// -Wrestrict overlap in it.

WorkloadSpec banking_spec() {
  WorkloadSpec spec;
  spec.name = std::string("A");
  spec.industry = "Banking";
  spec.num_servers = 816;
  spec.target_avg_cpu_util = 0.05;
  spec.util_dispersion_cov = 1.1;
  spec.web_fraction = 0.78;
  spec.app_size_mean = 12.0;
  spec.shared_burst_fraction = 0.75;
  spec.util_ceiling_mean = 0.80;
  spec.util_ceiling_sigma = 0.12;
  spec.fleet_burst_per_day = 0.30;
  spec.fleet_burst_alpha = 2.0;
  spec.fleet_burst_cap_mult = 2.5;
  spec.server_mix = ServerMix{kBankingMix};

  spec.web_cpu.diurnal_peak_mult = 6.0;
  spec.web_cpu.diurnal_dispersion = 0.8;
  spec.web_cpu.business_start_hour = 8;
  spec.web_cpu.business_end_hour = 19;
  spec.web_cpu.phase_jitter_hours = 1.0;
  spec.web_cpu.weekend_factor = 0.5;
  spec.web_cpu.bursts_per_day = 0.60;
  spec.web_cpu.burst_rate_dispersion = 1.2;
  spec.web_cpu.burst_alpha = 1.4;
  spec.web_cpu.burst_cap_mult = 10.0;
  spec.web_cpu.burst_mean_duration_hours = 2.0;
  spec.web_cpu.ar1_sigma = 0.10;

  spec.batch_cpu.batch_intensity = 3.5;
  spec.batch_cpu.batch_duration_hours = 3;
  spec.batch_cpu.batch_off_level = 0.35;
  spec.batch_cpu.bursts_per_day = 0.3;
  spec.batch_cpu.burst_rate_dispersion = 1.0;
  spec.batch_cpu.burst_alpha = 1.5;
  spec.batch_cpu.burst_cap_mult = 15.0;
  spec.batch_cpu.month_end_boost = 2.0;

  spec.web_mem.base_fraction_mean = 0.09;
  spec.web_mem.base_fraction_sigma = 0.028;
  spec.web_mem.coupled_fraction = 0.12;
  spec.web_mem.coupled_fraction_sigma = 0.08;
  spec.web_mem.linear_coupling_probability = 0.35;
  spec.web_mem.linear_coupled_fraction = 0.90;
  spec.web_mem.ar1_sigma = 0.02;

  spec.batch_mem.base_fraction_mean = 0.10;
  spec.batch_mem.coupled_fraction = 0.12;
  spec.batch_mem.coupled_fraction_sigma = 0.08;
  spec.batch_mem.linear_coupling_probability = 0.10;
  return spec;
}

WorkloadSpec airlines_spec() {
  WorkloadSpec spec;
  spec.name = std::string("B");
  spec.industry = "Airlines";
  spec.num_servers = 445;
  spec.target_avg_cpu_util = 0.01;
  spec.util_dispersion_cov = 0.9;
  spec.web_fraction = 0.45;
  spec.server_mix = ServerMix{kAirlinesMix};

  spec.web_cpu.diurnal_peak_mult = 1.8;
  spec.web_cpu.diurnal_dispersion = 0.6;
  spec.web_cpu.phase_jitter_hours = 2.5;
  spec.web_cpu.weekend_factor = 0.9;  // travel traffic persists on weekends
  spec.web_cpu.bursts_per_day = 0.3;
  spec.web_cpu.burst_rate_dispersion = 1.2;
  spec.web_cpu.burst_alpha = 1.5;
  spec.web_cpu.burst_cap_mult = 10.0;
  spec.web_cpu.burst_mean_duration_hours = 2.0;
  spec.web_cpu.ar1_rho = 0.92;
  spec.web_cpu.ar1_sigma = 0.34;
  spec.web_cpu.ar1_sigma_dispersion = 0.60;

  spec.batch_cpu.batch_intensity = 2.0;
  spec.batch_cpu.batch_duration_hours = 4;
  spec.batch_cpu.batch_off_level = 0.6;
  spec.batch_cpu.bursts_per_day = 0.3;
  spec.batch_cpu.burst_rate_dispersion = 1.2;
  spec.batch_cpu.burst_alpha = 1.5;
  spec.batch_cpu.burst_cap_mult = 8.0;
  spec.batch_cpu.burst_mean_duration_hours = 2.0;
  spec.batch_cpu.ar1_rho = 0.92;
  spec.batch_cpu.ar1_sigma = 0.28;
  spec.batch_cpu.ar1_sigma_dispersion = 0.60;

  spec.web_mem.base_fraction_mean = 0.62;
  spec.web_mem.base_fraction_sigma = 0.12;
  spec.web_mem.coupled_fraction = 0.06;
  spec.web_mem.coupled_fraction_sigma = 0.04;
  spec.web_mem.ar1_sigma = 0.010;

  spec.batch_mem.base_fraction_mean = 0.58;
  spec.batch_mem.coupled_fraction = 0.05;
  spec.batch_mem.coupled_fraction_sigma = 0.03;
  spec.batch_mem.ar1_sigma = 0.010;
  return spec;
}

WorkloadSpec natural_resources_spec() {
  WorkloadSpec spec;
  spec.name = std::string("C");
  spec.industry = "Natural Resources";
  spec.num_servers = 1390;
  spec.target_avg_cpu_util = 0.12;
  spec.util_dispersion_cov = 0.8;
  spec.web_fraction = 0.20;
  spec.server_mix = ServerMix{kNatResMix};

  spec.web_cpu.diurnal_peak_mult = 2.5;
  spec.web_cpu.diurnal_dispersion = 0.6;
  spec.web_cpu.phase_jitter_hours = 2.0;
  spec.web_cpu.weekend_factor = 0.6;
  spec.web_cpu.bursts_per_day = 0.3;
  spec.web_cpu.burst_rate_dispersion = 1.5;
  spec.web_cpu.burst_alpha = 1.35;
  spec.web_cpu.burst_cap_mult = 15.0;
  spec.web_cpu.burst_mean_duration_hours = 2.5;
  spec.web_cpu.ar1_rho = 0.90;
  spec.web_cpu.ar1_sigma = 0.22;
  spec.web_cpu.ar1_sigma_dispersion = 0.60;

  spec.batch_cpu.batch_intensity = 2.2;
  spec.batch_cpu.batch_duration_hours = 5;
  spec.batch_cpu.batch_off_level = 0.7;
  spec.batch_cpu.batch_start_jitter_hours = 5;
  spec.batch_cpu.bursts_per_day = 0.25;
  spec.batch_cpu.burst_rate_dispersion = 1.6;
  spec.batch_cpu.burst_alpha = 1.4;
  spec.batch_cpu.burst_cap_mult = 15.0;
  spec.batch_cpu.burst_mean_duration_hours = 2.5;
  spec.batch_cpu.ar1_rho = 0.90;
  spec.batch_cpu.ar1_sigma = 0.18;
  spec.batch_cpu.ar1_sigma_dispersion = 0.60;
  spec.batch_cpu.month_end_boost = 1.6;
  spec.batch_cpu.ar1_sigma = 0.06;

  spec.web_mem.base_fraction_mean = 0.50;
  spec.web_mem.coupled_fraction = 0.30;
  spec.web_mem.coupled_fraction_sigma = 0.15;
  spec.web_mem.linear_coupling_probability = 0.08;
  spec.web_mem.ar1_sigma = 0.018;

  spec.batch_mem.base_fraction_mean = 0.52;
  spec.batch_mem.coupled_fraction = 0.28;
  spec.batch_mem.coupled_fraction_sigma = 0.14;
  spec.batch_mem.linear_coupling_probability = 0.05;
  spec.batch_mem.ar1_sigma = 0.018;
  return spec;
}

WorkloadSpec beverage_spec() {
  WorkloadSpec spec;
  spec.name = std::string("D");
  spec.industry = "Beverage";
  spec.num_servers = 722;
  spec.target_avg_cpu_util = 0.06;
  spec.util_dispersion_cov = 1.0;
  spec.web_fraction = 0.60;
  spec.app_size_mean = 9.0;
  spec.shared_burst_fraction = 0.65;
  spec.util_ceiling_mean = 0.72;
  spec.fleet_burst_per_day = 0.30;
  spec.fleet_burst_alpha = 2.0;
  spec.fleet_burst_cap_mult = 3.5;
  spec.server_mix = ServerMix{kBeverageMix};

  spec.web_cpu.diurnal_peak_mult = 4.8;
  spec.web_cpu.diurnal_dispersion = 0.8;
  spec.web_cpu.phase_jitter_hours = 1.5;
  spec.web_cpu.weekend_factor = 0.55;
  spec.web_cpu.bursts_per_day = 0.60;
  spec.web_cpu.burst_rate_dispersion = 1.2;
  spec.web_cpu.burst_alpha = 1.35;
  spec.web_cpu.burst_cap_mult = 15.0;
  spec.web_cpu.burst_mean_duration_hours = 1.8;
  spec.web_cpu.ar1_sigma = 0.09;

  spec.batch_cpu.batch_intensity = 3.0;
  spec.batch_cpu.batch_duration_hours = 4;
  spec.batch_cpu.batch_off_level = 0.4;
  spec.batch_cpu.bursts_per_day = 0.3;
  spec.batch_cpu.burst_rate_dispersion = 1.0;
  spec.batch_cpu.burst_alpha = 1.6;
  spec.batch_cpu.burst_cap_mult = 12.0;
  spec.batch_cpu.month_end_boost = 1.8;

  spec.web_mem.base_fraction_mean = 0.135;
  spec.web_mem.base_fraction_sigma = 0.045;
  spec.web_mem.coupled_fraction = 0.22;
  spec.web_mem.coupled_fraction_sigma = 0.15;
  spec.web_mem.linear_coupling_probability = 0.10;
  spec.web_mem.linear_coupled_fraction = 0.85;
  spec.web_mem.ar1_sigma = 0.02;

  spec.batch_mem.base_fraction_mean = 0.16;
  spec.batch_mem.coupled_fraction = 0.12;
  spec.batch_mem.coupled_fraction_sigma = 0.08;
  spec.batch_mem.linear_coupling_probability = 0.05;
  return spec;
}

std::vector<WorkloadSpec> all_workload_specs() {
  return {banking_spec(), airlines_spec(), natural_resources_spec(),
          beverage_spec()};
}

WorkloadSpec workload_spec_by_name(std::string_view name) {
  for (auto& spec : all_workload_specs()) {
    if (spec.name == name || spec.industry == name) return spec;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

WorkloadSpec scaled_down(WorkloadSpec spec, int servers, std::size_t hours) {
  spec.num_servers = servers;
  spec.hours = hours;
  return spec;
}

}  // namespace vmcw
