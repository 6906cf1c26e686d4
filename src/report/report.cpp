#include "report/report.h"

#include <filesystem>
#include <stdexcept>
#include <vector>

#include "analysis/burstiness.h"
#include "analysis/resource_ratio.h"
#include "analysis/workload_report.h"
#include "core/study.h"
#include "migration/reservation_study.h"
#include "runtime/telemetry.h"
#include "trace/generator.h"
#include "trace/presets.h"
#include "util/table.h"
#include "validation/replay.h"

namespace vmcw {

namespace {

void section_fleets(std::string& md, const std::vector<Datacenter>& fleets) {
  md += "## Workloads (Table 2)\n\n";
  TextTable table({"Name", "Industry", "Servers", "CPU util", "Web share",
                   "Avg committed mem"});
  for (const auto& dc : fleets) {
    const auto s = summarize_workload(dc);
    table.add_row({s.name, s.industry, std::to_string(s.servers),
                   fmt_pct(s.avg_cpu_util), fmt_pct(s.web_fraction, 0),
                   fmt(s.avg_mem_committed_gb, 1) + " GB"});
  }
  md += table.markdown() + "\n";
}

void section_burstiness(std::string& md,
                        const std::vector<Datacenter>& fleets) {
  md += "## Burstiness (Figures 2-5, Observations 1-2)\n\n";
  TextTable table({"Workload", "CPU P2A p50", "CPU CoV>=1", "Mem P2A p50",
                   "Mem CoV>=1"});
  for (const auto& dc : fleets) {
    const auto cpu = burstiness(dc, Resource::kCpu, 1);
    const auto mem = burstiness(dc, Resource::kMemory, 1);
    table.add_row({dc.industry, fmt(p2a_cdf(cpu).quantile(0.5), 1),
                   fmt_pct(heavy_tailed_fraction(cpu)),
                   fmt(p2a_cdf(mem).quantile(0.5), 2),
                   fmt_pct(heavy_tailed_fraction(mem))});
  }
  md += table.markdown();
  md += "\nCPU demand is heavy-tailed for the web-heavy estates while "
        "memory stays an order of magnitude calmer everywhere.\n\n";
}

void section_resource_ratio(std::string& md,
                            const std::vector<Datacenter>& fleets,
                            const StudySettings& settings) {
  md += "## Resource ratio vs the HS23 blade (Figure 6, Observation 3)\n\n";
  TextTable table({"Workload", "ratio p50 (RPE2/GB)", "ratio p90",
                   "memory-constrained intervals"});
  for (const auto& dc : fleets) {
    const auto cdf = resource_ratio_cdf(dc, settings.interval_hours,
                                        settings.eval_hours);
    table.add_row({dc.industry, fmt(cdf.quantile(0.5), 0),
                   fmt(cdf.quantile(0.9), 0),
                   fmt_pct(memory_constrained_fraction(
                       dc, settings.interval_hours, settings.eval_hours))});
  }
  md += table.markdown();
  md += "\nIntervals below the blade's ratio of 160 RPE2/GB run out of "
        "memory before CPU.\n\n";
}

void section_study(std::string& md, const std::vector<StudyResult>& studies) {
  md += "## Consolidation comparison (Figures 7-8, Observations 5-6)\n\n";
  TextTable table({"Workload", "space SS/St/Dy (norm)", "power SS/St/Dy",
                   "contention time Dy", "migrations/interval"});
  for (const auto& study : studies) {
    const auto& dyn = study.get(Algorithm::kDynamic);
    table.add_row(
        {study.workload,
         "1.000 / " +
             fmt(study.normalized_space_cost(Algorithm::kStochastic), 3) +
             " / " + fmt(study.normalized_space_cost(Algorithm::kDynamic), 3),
         "1.000 / " +
             fmt(study.normalized_power_cost(Algorithm::kStochastic), 3) +
             " / " + fmt(study.normalized_power_cost(Algorithm::kDynamic), 3),
         fmt_pct(dyn.emulation.contention_time_fraction()),
         fmt(static_cast<double>(dyn.total_migrations) /
                 static_cast<double>(study.settings.intervals()),
             1)});
  }
  md += table.markdown();
  md += "\nStochastic (PCP) semi-static consolidation holds or beats "
        "dynamic consolidation on space cost; dynamic wins on power only "
        "for the bursty CPU-intensive estates, where it also contends.\n\n";
}

/// Figs 13-16's utilization bounds: min_bound to max_bound by bound_step.
std::vector<double> sensitivity_bounds(const ReportOptions& options) {
  std::vector<double> bounds;
  for (double u = options.min_bound; u <= options.max_bound + 1e-9;
       u += options.bound_step)
    bounds.push_back(u);
  return bounds;
}

void section_sensitivity(std::string& md,
                         const std::vector<Datacenter>& fleets,
                         const StudySettings& settings,
                         const ReportOptions& options) {
  md += "## Sensitivity to the migration reservation (Figures 13-16, "
        "Observation 7)\n\n";
  const std::vector<double> bounds = sensitivity_bounds(options);

  for (const auto& dc : fleets) {
    const auto sweep = sensitivity_sweep(dc, settings, bounds);
    md += "**" + dc.industry + "** (Semi-Static " +
          std::to_string(sweep.semi_static_hosts) + " hosts, Stochastic " +
          std::to_string(sweep.stochastic_hosts) + "):\n\n";
    TextTable table({"U", "dynamic hosts", "vs stochastic"});
    for (const auto& p : sweep.dynamic_points) {
      table.add_row({fmt(p.utilization_bound, 2),
                     std::to_string(p.dynamic_hosts),
                     fmt(static_cast<double>(p.dynamic_hosts) /
                             static_cast<double>(sweep.stochastic_hosts),
                         3)});
    }
    md += table.markdown() + "\n";
  }
}

void section_migration(std::string& md) {
  md += "## Live-migration reservation (Observation 4)\n\n";
  ReservationStudyConfig config;
  config.utilization_step = 0.01;
  const double bound = max_reliable_cpu_utilization(config);
  md += "Pre-copy model: migrations stay reliable up to " +
        fmt_pct(bound, 0) + " host CPU utilization, i.e. reserve " +
        fmt_pct(1.0 - bound, 0) +
        " of every host (the paper adopts a pragmatic 20%; VMware "
        "recommends 30%).\n\n";
}

void section_validation(std::string& md) {
  md += "## Emulator validation (Section 5.2)\n\n";
  const auto trace = make_validation_trace(336, 77);
  const RubisLikeApp rubis;
  const DaxpyLikeApp daxpy;
  const auto r = validate_emulator(rubis, trace, 0, 336, 1);
  const auto d = validate_emulator(daxpy, trace, 0, 336, 2);
  TextTable table({"Workload", "CPU p99 error", "Mem p99 error",
                   "paper bound"});
  table.add_row({"RUBiS-like", fmt_pct(r.cpu_p99_error),
                 fmt_pct(r.mem_p99_error), "5%"});
  table.add_row({"daxpy-like", fmt_pct(d.cpu_p99_error),
                 fmt_pct(d.mem_p99_error), "2%"});
  md += table.markdown() + "\n";
}

std::vector<Datacenter> report_fleets(const ReportOptions& options) {
  std::vector<Datacenter> fleets;
  for (const auto& preset : all_workload_specs()) {
    const WorkloadSpec spec =
        options.servers_per_dc > 0
            ? scaled_down(preset, options.servers_per_dc, preset.hours)
            : preset;
    fleets.push_back(generate_datacenter(spec, options.seed));
  }
  return fleets;
}

}  // namespace

std::string build_paper_report(const ReportOptions& options) {
  const std::vector<Datacenter> fleets = report_fleets(options);
  const StudySettings settings;
  std::vector<StudyResult> studies;
  for (const auto& dc : fleets) studies.push_back(run_study(dc, settings));

  std::string md;
  md += "# Virtual Machine Consolidation in the Wild — reproduction "
        "report\n\n";
  md += "Synthetic estates, seed " + std::to_string(options.seed) +
        "; Table 3 baseline settings (14-day window, 2h intervals, " +
        fmt_pct(1.0 - settings.dynamic_utilization_bound, 0) +
        " migration reservation).\n\n";
  section_fleets(md, fleets);
  section_burstiness(md, fleets);
  section_resource_ratio(md, fleets, settings);
  section_study(md, studies);
  section_sensitivity(md, fleets, settings, options);
  section_migration(md);
  section_validation(md);
  md += "---\nGenerated by vmcw::build_paper_report().\n";
  return md;
}

namespace {

void write_file(const std::string& path, const std::string& content,
                std::vector<std::string>& written) {
  if (!write_file_atomic(path, content))
    throw std::runtime_error("cannot write " + path);
  written.push_back(path);
}

/// One row per quantile step, one column per (workload, window) curve.
std::string cdf_csv(const std::vector<Datacenter>& fleets, Resource resource,
                    bool plot_cov) {
  TextTable table([&] {
    std::vector<std::string> header{"quantile"};
    for (const auto& dc : fleets)
      for (const char* w : {"1h", "2h", "4h"})
        header.push_back(dc.industry + " " + w);
    return header;
  }());
  std::vector<EmpiricalCdf> cdfs;
  for (const auto& dc : fleets) {
    for (std::size_t window : {1u, 2u, 4u}) {
      const auto result = burstiness(dc, resource, window);
      cdfs.push_back(plot_cov ? cov_cdf(result) : p2a_cdf(result));
    }
  }
  for (int q = 1; q <= 100; ++q) {
    std::vector<std::string> row{fmt(q / 100.0, 2)};
    for (const auto& cdf : cdfs) row.push_back(fmt(cdf.quantile(q / 100.0), 4));
    table.add_row(std::move(row));
  }
  return table.csv();
}

}  // namespace

std::vector<std::string> write_report_data(const std::string& directory,
                                           const ReportOptions& options) {
  std::filesystem::create_directories(directory);
  std::vector<std::string> written;
  const auto fleets = report_fleets(options);
  const StudySettings settings;

  // Figs 2-5: burstiness CDFs.
  write_file(directory + "/fig02_cpu_p2a.csv",
             cdf_csv(fleets, Resource::kCpu, false), written);
  write_file(directory + "/fig03_cpu_cov.csv",
             cdf_csv(fleets, Resource::kCpu, true), written);
  write_file(directory + "/fig04_mem_p2a.csv",
             cdf_csv(fleets, Resource::kMemory, false), written);
  write_file(directory + "/fig05_mem_cov.csv",
             cdf_csv(fleets, Resource::kMemory, true), written);

  // Fig 6: resource-ratio CDFs.
  {
    TextTable table({"quantile", fleets[0].industry, fleets[1].industry,
                     fleets[2].industry, fleets[3].industry});
    std::vector<EmpiricalCdf> cdfs;
    for (const auto& dc : fleets)
      cdfs.push_back(resource_ratio_cdf(dc, settings.interval_hours,
                                        settings.eval_hours));
    for (int q = 1; q <= 100; ++q) {
      std::vector<std::string> row{fmt(q / 100.0, 2)};
      for (const auto& cdf : cdfs)
        row.push_back(fmt(cdf.quantile(q / 100.0), 2));
      table.add_row(std::move(row));
    }
    write_file(directory + "/fig06_resource_ratio.csv", table.csv(), written);
  }

  // Fig 7 + Fig 12: need the studies.
  std::vector<StudyResult> studies;
  for (const auto& dc : fleets) studies.push_back(run_study(dc, settings));
  {
    TextTable table({"workload", "algorithm", "space_norm", "power_norm",
                     "hosts", "contention_time"});
    for (const auto& study : studies) {
      for (Algorithm a : {Algorithm::kSemiStatic, Algorithm::kStochastic,
                          Algorithm::kDynamic}) {
        const auto& r = study.get(a);
        table.add_row({study.workload, to_string(a),
                       fmt(study.normalized_space_cost(a), 4),
                       fmt(study.normalized_power_cost(a), 4),
                       std::to_string(r.provisioned_hosts),
                       fmt(r.emulation.contention_time_fraction(), 4)});
      }
    }
    write_file(directory + "/fig07_costs.csv", table.csv(), written);
  }
  {
    TextTable table({"workload", "interval", "active_fraction"});
    for (const auto& study : studies) {
      const auto& dyn = study.get(Algorithm::kDynamic);
      for (std::size_t k = 0;
           k < dyn.emulation.active_hosts_per_interval.size(); ++k) {
        table.add_row(
            {study.workload, std::to_string(k),
             fmt(static_cast<double>(
                     dyn.emulation.active_hosts_per_interval[k]) /
                     static_cast<double>(dyn.provisioned_hosts),
                 4)});
      }
    }
    write_file(directory + "/fig12_active_servers.csv", table.csv(), written);
  }

  // Figs 13-16: sensitivity curves.
  {
    const std::vector<double> bounds = sensitivity_bounds(options);
    TextTable table({"workload", "utilization_bound", "dynamic_hosts",
                     "semi_static_hosts", "stochastic_hosts"});
    for (const auto& dc : fleets) {
      const auto sweep = sensitivity_sweep(dc, settings, bounds);
      for (const auto& p : sweep.dynamic_points) {
        table.add_row({dc.industry, fmt(p.utilization_bound, 2),
                       std::to_string(p.dynamic_hosts),
                       std::to_string(sweep.semi_static_hosts),
                       std::to_string(sweep.stochastic_hosts)});
      }
    }
    write_file(directory + "/fig13_16_sensitivity.csv", table.csv(), written);
  }
  return written;
}

std::string render_robustness_report(std::span<const RobustnessRow> rows) {
  std::string md;
  md += "## Robustness under injected faults (src/chaos)\n\n";
  TextTable table({"Workload", "Strategy", "f", "Crashes", "Evac ok/fail",
                   "Stale ivs", "Migr attempts", "Retries", "Deferred",
                   "VM down h", "Availability", "SLA intervals",
                   "Capacity lost (host-h)", "Incidents", "Worst recovery h",
                   "Max app blast", "Peak VMs down"});
  for (const auto& row : rows) {
    const RobustnessReport& r = row.report;
    table.add_row({row.workload, row.strategy, fmt(row.fault_intensity, 2),
                   std::to_string(r.host_crashes),
                   std::to_string(r.evacuations) + "/" +
                       std::to_string(r.failed_evacuations),
                   std::to_string(r.stale_intervals),
                   std::to_string(r.migration_attempts),
                   std::to_string(r.migration_retries),
                   std::to_string(r.migrations_deferred),
                   std::to_string(r.vm_downtime_hours),
                   fmt_pct(r.availability(), 3),
                   std::to_string(r.sla_violation_intervals.size()),
                   fmt(r.capacity_lost_host_hours, 0),
                   std::to_string(r.incidents.size()),
                   fmt(r.worst_incident_recovery_hours, 1),
                   fmt_pct(r.max_app_blast_radius, 1),
                   std::to_string(r.max_vms_down_simultaneously)});
  }
  md += table.markdown();
  md += "\nFault intensity f scales a production-shaped mix (host crashes, "
        "migration failures and slowdowns, monitoring gaps); f = 0 replays "
        "the perfect world and is bit-identical to the plain emulator. "
        "Incident columns cover correlated rack / power-domain outages: "
        "worst detection-to-restored time, the largest share of one "
        "application's replicas lost to a single incident, and the peak "
        "count of VMs offline in any hour.\n";
  return md;
}

void write_paper_report(const std::string& path,
                        const ReportOptions& options) {
  if (!write_file_atomic(path, build_paper_report(options)))
    throw std::runtime_error("cannot write " + path);
}

}  // namespace vmcw
