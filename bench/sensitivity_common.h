// Shared implementation for Figures 13-16: servers provisioned by Dynamic
// consolidation as a function of the utilization bound U (1-U of each
// host's CPU and memory is reserved for live migration), with the
// U-independent Semi-Static and Stochastic requirements as reference lines.
//
// The estate is generated and observed once, exactly as a sweep cell on
// kStudySeed observes it (observe_cell), and core::sensitivity_sweep plans
// the two references and every bound on that one warehouse view. Nothing
// is emulated: the figure reads only host counts.
#pragma once

#include <cstdio>
#include <exception>
#include <string>

#include "common.h"

namespace vmcw::bench {

inline int run_sensitivity_bench(const char* figure,
                                 const char* workload_name,
                                 const char* paper_note, int argc,
                                 char** argv) {
  print_header(figure, "Performance vs utilization bound");
  const int servers = parse_options(argc, argv).servers;
  WorkloadSpec spec = workload_spec_by_name(workload_name);
  if (servers > 0) spec = scaled_down(spec, servers, spec.hours);
  std::printf("workload: %s (%d servers)\n\n", spec.industry.c_str(),
              spec.num_servers);

  const std::vector<double> bounds{0.60, 0.65, 0.70, 0.75, 0.80,
                                   0.85, 0.90, 0.95, 1.00};
  SensitivityResult curve;
  try {
    const ConsolidationEngine engine =
        observe_cell(spec, baseline_settings(), kStudySeed);
    curve = sensitivity_sweep(engine.planner_view(), baseline_settings(),
                              bounds);
  } catch (const std::exception& e) {
    std::printf("FAIL: %s\n", e.what());
    return 1;
  }
  TextTable table({"utilization bound U", "Dynamic hosts",
                   "vs Semi-Static", "vs Stochastic"});
  for (const SensitivityPoint& point : curve.dynamic_points) {
    const auto hosts = static_cast<double>(point.dynamic_hosts);
    table.add_row(
        {fmt(point.utilization_bound, 2), std::to_string(point.dynamic_hosts),
         fmt(hosts / static_cast<double>(curve.semi_static_hosts), 3),
         fmt(hosts / static_cast<double>(curve.stochastic_hosts), 3)});
  }
  std::string out = table.str();
  out += "\nreference lines: Semi-Static = " +
         std::to_string(curve.semi_static_hosts) +
         " hosts, Stochastic = " + std::to_string(curve.stochastic_hosts) +
         " hosts (independent of U)\n";

  // Where does Dynamic cross the Stochastic line?
  double crossover = -1.0;
  for (const SensitivityPoint& point : curve.dynamic_points) {
    if (point.dynamic_hosts <= curve.stochastic_hosts) {
      crossover = point.utilization_bound;
      break;
    }
  }
  if (crossover > 0) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "Dynamic matches Stochastic at U >= %.2f "
                  "(reservation <= %.0f%%)\n",
                  crossover, (1.0 - crossover) * 100.0);
    out += line;
  } else {
    out += "Dynamic never reaches the Stochastic line in this sweep\n";
  }
  std::printf("%s", out.c_str());
  write_dat(out);

  std::printf("\npaper: %s\n", paper_note);
  return 0;
}

}  // namespace vmcw::bench
