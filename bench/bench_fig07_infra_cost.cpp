// Figure 7 — infrastructure cost comparison: space & hardware cost and
// power cost of the three consolidation approaches, normalized to vanilla
// Semi-Static, for all four data centers.
//
// Besides the figure on stdout it writes BENCH_fig07_infra_cost.json:
// studies per second, dynamic_plan_seconds (the summed
// study.dynamic_plan_seconds spans: plan_dynamic alone, the critical path of
// every study; the emulation of its schedule is study.dynamic_emulate_seconds
// in the telemetry sidecar) and hosts_used (provisioned hosts summed over
// estates and planners), a structural key the perf gate (tools/bench_gate)
// matches exactly before comparing times.

#include <cstdio>

#include "common.h"

using namespace vmcw;

int main(int argc, char** argv) {
  bench::print_header("Figure 7", "Infrastructure Cost Comparison "
                                  "(normalized to vanilla Semi-Static)");
  const auto fleets = bench::make_fleets(argc, argv);
  const bench::WallTimer timer;
  const auto studies = bench::run_all_studies(fleets);
  const double wall = timer.seconds();

  std::printf("\n(a) space and hardware cost\n");
  TextTable space({"workload", "Semi-Static", "Stochastic", "Dynamic",
                   "hosts (SS/St/Dy)"});
  for (const auto& study : studies) {
    space.add_row(
        {study.workload,
         fmt(study.normalized_space_cost(Algorithm::kSemiStatic), 3),
         fmt(study.normalized_space_cost(Algorithm::kStochastic), 3),
         fmt(study.normalized_space_cost(Algorithm::kDynamic), 3),
         std::to_string(study.get(Algorithm::kSemiStatic).provisioned_hosts) +
             "/" +
             std::to_string(study.get(Algorithm::kStochastic).provisioned_hosts) +
             "/" +
             std::to_string(study.get(Algorithm::kDynamic).provisioned_hosts)});
  }
  std::printf("%s", space.str().c_str());

  std::printf("\n(b) power cost\n");
  TextTable power({"workload", "Semi-Static", "Stochastic", "Dynamic"});
  for (const auto& study : studies) {
    power.add_row(
        {study.workload,
         fmt(study.normalized_power_cost(Algorithm::kSemiStatic), 3),
         fmt(study.normalized_power_cost(Algorithm::kStochastic), 3),
         fmt(study.normalized_power_cost(Algorithm::kDynamic), 3)});
  }
  std::printf("%s", power.str().c_str());

  std::printf("\nmigrations per interval (Dynamic):\n");
  TextTable mig({"workload", "total", "mean/interval", "% of VMs/interval"});
  for (std::size_t i = 0; i < studies.size(); ++i) {
    const auto& dyn = studies[i].get(Algorithm::kDynamic);
    const double per_interval =
        static_cast<double>(dyn.total_migrations) /
        static_cast<double>(studies[i].settings.intervals());
    mig.add_row({studies[i].workload, std::to_string(dyn.total_migrations),
                 fmt(per_interval, 1),
                 fmt_pct(per_interval /
                         static_cast<double>(fleets[i].servers.size()))});
  }
  std::printf("%s", mig.str().c_str());

  std::printf(
      "\npaper: Stochastic beats Dynamic on space cost everywhere (the 20%%\n"
      "migration reservation erases fine-grained sizing gains); Dynamic\n"
      "beats vanilla on space for 3 of 4 workloads; on power, Dynamic cuts\n"
      "~50%% for Banking/Beverage but is muted for the memory-bound\n"
      "Airlines/Natural Resources. [29] reports >25%% of VMs migrating per\n"
      "interval.\n");

  double hosts_used = 0;
  for (const auto& study : studies)
    for (const auto& result : study.results)
      hosts_used += static_cast<double>(result.provisioned_hosts);
  const double studies_run = static_cast<double>(studies.size());
  bench::write_bench_json(
      "fig07_infra_cost", wall, "studies_per_sec",
      wall > 0 ? studies_run / wall : 0,
      {{"dynamic_plan_seconds",
        MetricsRegistry::global().histogram("study.dynamic_plan_seconds").sum},
       {"hosts_used", hosts_used}});
  return 0;
}
