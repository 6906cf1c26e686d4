// paper_study: the Section 5 three-planner study over the four Table-2
// estates, the paper's headline artefact.
//
// Set-up generates the estates from the seed and converts them to VM
// workloads (nine times; the median is setup_s). After a warm-up — one
// study on a pool of 4 threads (3 workers + the caller) and the serial
// reference (run_study's calls one after another on one thread) — the
// measured phase runs `reps` pool studies with a serial study after every
// third. Every study must equal the reference field for field.
//
//   decide_p50_ms  median wall time of one four-estate pool study
//   second_p50_ms  median wall time of the serial reference
//
// The traced run adds the same generation and serial study with every
// call in a span (trace.generate, core.plan_*, core.emulate); the
// difference to the untraced serial study is the tracing overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/study.h"
#include "harness.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "trace/generator.h"
#include "trace/presets.h"

namespace perfbench {

using namespace vmcw;

namespace {

/// Nominal wall time of one pool study plus a third of a serial one on the
/// reference box; fixes how many repetitions fill --seconds. A constant,
/// never measured at run time, so every commit does the same work.
constexpr double kNominalRepSeconds = 2.0;
constexpr std::size_t kPoolThreads = 4;  // caller included
constexpr int kSetupRepeats = 9;

/// Host counts bench_fig07_infra_cost prints at kStudySeed (SS/St/Dy).
struct Pin {
  const char* workload;
  std::size_t semi_static, stochastic, dynamic;
};
constexpr Pin kFig07Hosts[] = {
    {"Banking", 42, 34, 36},
    {"Airlines", 59, 58, 73},
    {"Natural Resources", 150, 137, 166},
    {"Beverage", 39, 31, 29},
};

struct Estate {
  std::string name;
  std::vector<VmWorkload> vms;
};

std::vector<Estate> make_estates(std::uint64_t seed, Tracer& tracer) {
  const std::vector<WorkloadSpec> specs = all_workload_specs();
  std::vector<Estate> estates(specs.size());
  if (tracer.enabled()) {
    // Serial, so each estate's generation is one span.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Datacenter dc;
      {
        auto span = tracer.scope("trace.generate", static_cast<std::int64_t>(i));
        dc = generate_datacenter(specs[i], seed);
      }
      auto span = tracer.scope("core.to_vm_workloads", static_cast<std::int64_t>(i));
      estates[i] = Estate{dc.industry, to_vm_workloads(dc)};
    }
    return estates;
  }
  parallel_for(
      0, specs.size(),
      [&](std::size_t i) {
        const Datacenter dc = generate_datacenter(specs[i], seed);
        estates[i] = Estate{dc.industry, to_vm_workloads(dc)};
      },
      nullptr, 1);
  return estates;
}

/// One pool run: every estate's run_study as its own task. A study that
/// throws leaves its slot empty (counted as failed).
struct PoolRun {
  std::vector<StudyResult> studies;
  std::vector<char> ok;
  std::vector<double> seconds;  ///< per-estate study wall time
  double wall = 0;
};

PoolRun pool_study(const std::vector<Estate>& estates) {
  PoolRun run;
  run.studies.resize(estates.size());
  run.ok.assign(estates.size(), 0);
  run.seconds.assign(estates.size(), 0.0);
  const double start = now();
  parallel_for(
      0, estates.size(),
      [&](std::size_t i) {
        const double t = now();
        try {
          run.studies[i] = run_study(estates[i].name, estates[i].vms,
                                     StudySettings{});
          run.ok[i] = 1;
        } catch (const std::exception& e) {
          std::printf("study %s threw: %s\n", estates[i].name.c_str(), e.what());
        }
        run.seconds[i] = now() - t;
      },
      nullptr, 1);
  run.wall = now() - start;
  return run;
}

/// run_study's three evaluations, one call at a time on this thread, each
/// planner and emulation call in its own span.
StudyResult serial_study(const Estate& estate, Tracer& tracer, std::int64_t id) {
  const StudySettings settings;
  const CostModel costs;
  const double days = static_cast<double>(settings.eval_hours) / 24.0;
  StudyResult study;
  study.workload = estate.name;
  study.settings = settings;
  const auto evaluate_static = [&](Algorithm algorithm, const StaticPlan& plan) {
    AlgorithmResult r;
    r.algorithm = algorithm;
    const Placement schedule[] = {plan.placement};
    {
      auto span = tracer.scope("core.emulate", id);
      r.emulation = emulate(estate.vms, schedule, settings,
                            /*power_off_empty_hosts=*/false);
    }
    r.provisioned_hosts = plan.hosts_used;
    r.space_cost = costs.space_hardware_cost(settings.target,
                                             r.provisioned_hosts, days);
    r.power_cost = costs.power_cost(r.emulation.energy_wh);
    return r;
  };

  std::optional<StaticPlan> semi;
  {
    auto span = tracer.scope("core.plan_semi_static", id);
    semi = plan_semi_static(estate.vms, settings);
  }
  if (!semi) throw std::runtime_error("semi-static planning failed");
  study.results.push_back(evaluate_static(Algorithm::kSemiStatic, *semi));

  std::optional<StaticPlan> stochastic;
  {
    auto span = tracer.scope("core.plan_stochastic", id);
    stochastic = plan_stochastic(estate.vms, settings);
  }
  if (!stochastic) throw std::runtime_error("stochastic planning failed");
  study.results.push_back(evaluate_static(Algorithm::kStochastic, *stochastic));

  std::optional<DynamicPlan> dynamic;
  {
    auto span = tracer.scope("core.plan_dynamic", id);
    dynamic = plan_dynamic(estate.vms, settings);
  }
  if (!dynamic) throw std::runtime_error("dynamic planning failed");
  AlgorithmResult dyn;
  dyn.algorithm = Algorithm::kDynamic;
  {
    auto span = tracer.scope("core.emulate_dynamic", id);
    dyn.emulation = emulate(estate.vms, dynamic->per_interval, settings,
                            /*power_off_empty_hosts=*/true);
  }
  dyn.provisioned_hosts = dynamic->max_active_hosts;
  dyn.space_cost =
      costs.space_hardware_cost(settings.target, dyn.provisioned_hosts, days);
  dyn.power_cost = costs.power_cost(dyn.emulation.energy_wh);
  dyn.migrations_per_interval = std::move(dynamic->migrations);
  dyn.total_migrations = dynamic->total_migrations;
  study.results.push_back(std::move(dyn));
  return study;
}

bool same_emulation(const EmulationReport& a, const EmulationReport& b) {
  return a.eval_hours == b.eval_hours && a.intervals == b.intervals &&
         a.provisioned_hosts == b.provisioned_hosts &&
         a.active_hosts_per_interval == b.active_hosts_per_interval &&
         a.host_avg_cpu_util == b.host_avg_cpu_util &&
         a.host_peak_cpu_util == b.host_peak_cpu_util &&
         a.cpu_contention_samples == b.cpu_contention_samples &&
         a.mem_contention_samples == b.mem_contention_samples &&
         a.hours_with_contention == b.hours_with_contention &&
         a.vm_contention_hours == b.vm_contention_hours &&
         a.total_vm_contention_hours == b.total_vm_contention_hours &&
         a.energy_wh == b.energy_wh;
}

/// Field-for-field equality of two studies of one estate.
bool same_study(const StudyResult& a, const StudyResult& b) {
  if (a.workload != b.workload || a.results.size() != b.results.size())
    return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const AlgorithmResult& x = a.results[i];
    const AlgorithmResult& y = b.results[i];
    if (x.algorithm != y.algorithm ||
        x.provisioned_hosts != y.provisioned_hosts ||
        x.space_cost != y.space_cost || x.power_cost != y.power_cost ||
        !same_emulation(x.emulation, y.emulation) ||
        x.migrations_per_interval != y.migrations_per_interval ||
        x.total_migrations != y.total_migrations)
      return false;
  }
  return true;
}

/// Serial reference over every estate. Returns its wall time.
double serial_reference(const std::vector<Estate>& estates, Tracer& tracer,
                        std::vector<StudyResult>& out) {
  out.assign(estates.size(), StudyResult{});
  const double start = now();
  const double cpu = thread_cpu_seconds();
  auto root = tracer.scope("study.serial");
  for (std::size_t i = 0; i < estates.size(); ++i)
    out[i] = serial_study(estates[i], tracer, static_cast<std::int64_t>(i));
  std::printf("serial study: wall %.3f s, cpu %.3f s\n", now() - start,
              thread_cpu_seconds() - cpu);
  return now() - start;
}

}  // namespace

Result run_paper_study(const Args& args) {
  Result result;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min(kPoolThreads, hw);
  // The caller helps while it waits, so the pool holds one thread fewer.
  ThreadPool pool(threads > 1 ? threads - 1 : 1);
  ScopedPoolOverride use_pool(pool);
  Tracer off(false);

  // ---- set-up ----
  std::vector<Estate> estates;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t = now();
    estates = make_estates(args.seed, off);
    setup.push_back(now() - t);
  }
  result.set("setup_s", median(setup));
  std::printf("set-up:");
  for (double t : setup) std::printf(" %.3f", t);
  std::printf(" s\n");
  std::size_t vms = 0;
  for (const Estate& e : estates) vms += e.vms.size();
  print_count("paper.estates", static_cast<double>(estates.size()));
  print_count("paper.vms", static_cast<double>(vms));

  // ---- measured phase ----
  // Warm-up: one pool study and the serial reference (the first serial
  // run after pool work pays the main thread's page faults). Then `reps`
  // pool studies with a timed serial study after every third, so both
  // sample the whole run; each is checked against the reference as it
  // completes.
  const int reps = std::max(
      3, static_cast<int>(std::lround(args.seconds / kNominalRepSeconds)));
  const auto check = [&](const PoolRun& run, const std::vector<StudyResult>& ref) {
    for (std::size_t i = 0; i < estates.size(); ++i) {
      ++result.attempted;
      if (!run.ok[i] || !same_study(run.studies[i], ref[i])) {
        ++result.failed;
        std::printf("estate %s: pool study differs from the serial one\n",
                    estates[i].name.c_str());
      }
    }
  };
  const PoolRun warm = pool_study(estates);
  std::vector<StudyResult> reference, again;
  serial_reference(estates, off, reference);
  check(warm, reference);
  const double job_start = now();
  PoolRun first;
  std::vector<double> study_s, serial_s;
  for (int r = 0; r < reps; ++r) {
    PoolRun run = pool_study(estates);
    study_s.push_back(run.wall);
    check(run, reference);
    if (r == 0) first = std::move(run);
    if (r % 3 != 2) continue;
    serial_s.push_back(serial_reference(estates, off, again));
    for (std::size_t i = 0; i < estates.size(); ++i)
      if (!same_study(again[i], reference[i]))
        result.fail("serial study of " + estates[i].name + " is not repeatable");
  }
  result.set("job_s", now() - job_start);
  result.set("decide_p50_ms", median(study_s) * 1e3);
  result.set("second_p50_ms", median(serial_s) * 1e3);
  std::printf("paper_study: %d pool studies, p50 %.3f s (min %.3f max %.3f); "
              "serial p50 %.3f s; pool %zu threads\n",
              reps, median(study_s),
              *std::min_element(study_s.begin(), study_s.end()),
              *std::max_element(study_s.begin(), study_s.end()),
              median(serial_s), threads);

  if (args.seed == kStudySeed)
    for (const Pin& pin : kFig07Hosts)
      for (const StudyResult& s : reference)
        if (s.workload == pin.workload &&
            (s.get(Algorithm::kSemiStatic).provisioned_hosts != pin.semi_static ||
             s.get(Algorithm::kStochastic).provisioned_hosts != pin.stochastic ||
             s.get(Algorithm::kDynamic).provisioned_hosts != pin.dynamic))
          result.fail(std::string("host counts of ") + pin.workload +
                      " differ from bench_fig07_infra_cost");

  // ---- structural counts ----
  double hosts[3] = {0, 0, 0};
  double migrations = 0;
  for (const StudyResult& s : reference) {
    const auto& ss = s.get(Algorithm::kSemiStatic);
    const auto& st = s.get(Algorithm::kStochastic);
    const auto& dy = s.get(Algorithm::kDynamic);
    std::printf("count hosts.%s SS/St/Dy %zu/%zu/%zu migrations %zu\n",
                s.workload.c_str(), ss.provisioned_hosts, st.provisioned_hosts,
                dy.provisioned_hosts, dy.total_migrations);
    hosts[0] += static_cast<double>(ss.provisioned_hosts);
    hosts[1] += static_cast<double>(st.provisioned_hosts);
    hosts[2] += static_cast<double>(dy.provisioned_hosts);
    migrations += static_cast<double>(dy.total_migrations);
  }
  print_count("core.hosts.semi_static", hosts[0]);
  print_count("core.hosts.stochastic", hosts[1]);
  print_count("core.hosts.dynamic", hosts[2]);
  print_count("core.dynamic.migrations", migrations);

  if (!args.trace) {
    print_registry();
    return result;
  }

  // ---- traced run ----
  // runtime: how busy the pool kept its threads over the first measured
  // pool study.
  double busy = 0;
  for (double s : first.seconds) busy += s;
  result.set("runtime.pool_busy_frac",
             busy / (static_cast<double>(threads) * first.wall));

  // Layer spans: generation, then the serial study; the untraced serial
  // studies above are the overhead reference.
  Tracer tracer(true);
  {
    auto root = tracer.scope("setup.serial");
    make_estates(args.seed, tracer);
  }
  const std::uint64_t vm_hours_before =
      MetricsRegistry::global().counter("emulate.vm_hours");
  std::vector<StudyResult> traced;
  const double traced_s = serial_reference(estates, tracer, traced);
  const std::uint64_t vm_hours =
      MetricsRegistry::global().counter("emulate.vm_hours") - vm_hours_before;
  for (std::size_t i = 0; i < estates.size(); ++i)
    if (!same_study(traced[i], reference[i]))
      result.fail("traced serial study of " + estates[i].name +
                  " differs from the untraced one");

  double critical = 0;
  {
    const auto plan = tracer.durations("core.plan_dynamic");
    const auto emul = tracer.durations("core.emulate_dynamic");
    for (std::size_t i = 0; i < plan.size() && i < emul.size(); ++i)
      critical = std::max(critical, plan[i] + emul[i]);
  }
  result.set("trace.generate_s", tracer.total("trace.generate"));
  result.set("core.plan_semi_static_s", tracer.self_time("core.plan_semi_static"));
  result.set("core.plan_stochastic_s", tracer.self_time("core.plan_stochastic"));
  result.set("core.plan_dynamic_s", tracer.self_time("core.plan_dynamic"));
  result.set("core.emulate_s", tracer.self_time("core.emulate") +
                                   tracer.self_time("core.emulate_dynamic"));
  result.set("core.dynamic_critical_s", critical);
  result.set("core.hosts.semi_static", hosts[0]);
  result.set("core.hosts.stochastic", hosts[1]);
  result.set("core.hosts.dynamic", hosts[2]);
  result.set("core.dynamic.migrations", migrations);
  result.set("core.emulate.vm_hours", static_cast<double>(vm_hours));
  result.set("trace.wall_s", traced_s);
  result.set("trace.unattributed_frac",
             tracer.self_time("study.serial") / tracer.total("study.serial"));
  result.set("trace.overhead_s", traced_s - median(serial_s));
  print_count("core.emulate.vm_hours", static_cast<double>(vm_hours));
  print_registry();
  tracer.write_csv(args.workdir + "/spans.csv");
  return result;
}

}  // namespace perfbench
