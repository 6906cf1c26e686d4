// Unit + property tests for the synthetic trace generator.

#include "trace/generator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "test_helpers.h"
#include "trace/presets.h"
#include "util/stats.h"

namespace vmcw {
namespace {

WorkloadSpec tiny_spec() {
  WorkloadSpec spec = scaled_down(banking_spec(), 40, 240);
  return spec;
}

TEST(Generator, Deterministic) {
  const auto spec = tiny_spec();
  const auto a = generate_datacenter(spec, 1);
  const auto b = generate_datacenter(spec, 1);
  ASSERT_EQ(a.servers.size(), b.servers.size());
  for (std::size_t i = 0; i < a.servers.size(); ++i) {
    ASSERT_EQ(a.servers[i].id, b.servers[i].id);
    ASSERT_EQ(a.servers[i].cpu_util.size(), b.servers[i].cpu_util.size());
    for (std::size_t t = 0; t < a.servers[i].cpu_util.size(); ++t) {
      ASSERT_DOUBLE_EQ(a.servers[i].cpu_util[t], b.servers[i].cpu_util[t]);
      ASSERT_DOUBLE_EQ(a.servers[i].mem_mb[t], b.servers[i].mem_mb[t]);
    }
  }
}

TEST(Generator, SeedChangesTraces) {
  const auto spec = tiny_spec();
  const auto a = generate_datacenter(spec, 1);
  const auto b = generate_datacenter(spec, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.servers.size() && !any_diff; ++i)
    any_diff = a.servers[i].cpu_util[0] != b.servers[i].cpu_util[0];
  EXPECT_TRUE(any_diff);
}

TEST(Generator, ProducesRequestedShape) {
  const auto spec = tiny_spec();
  const auto dc = generate_datacenter(spec, 3);
  EXPECT_EQ(dc.servers.size(), 40u);
  EXPECT_EQ(dc.name, "A");
  EXPECT_EQ(dc.industry, "Banking");
  EXPECT_EQ(dc.hours(), 240u);
  for (const auto& s : dc.servers) {
    EXPECT_EQ(s.cpu_util.size(), 240u);
    EXPECT_EQ(s.mem_mb.size(), 240u);
    EXPECT_FALSE(s.id.empty());
  }
}

TEST(Generator, UtilizationWithinPhysicalBounds) {
  const auto dc = generate_datacenter(tiny_spec(), 4);
  for (const auto& s : dc.servers) {
    for (std::size_t t = 0; t < s.cpu_util.size(); ++t) {
      EXPECT_GT(s.cpu_util[t], 0.0);
      EXPECT_LE(s.cpu_util[t], 1.0);
      EXPECT_GE(s.mem_mb[t], 64.0);
      EXPECT_LE(s.mem_mb[t], s.spec.memory_mb);
    }
  }
}

TEST(Generator, ServerTracesStableAcrossFleetSize) {
  // Growing the fleet must not perturb existing servers' traces (streams
  // are keyed by server id).
  const auto small = generate_datacenter(scaled_down(banking_spec(), 10, 120), 5);
  const auto large = generate_datacenter(scaled_down(banking_spec(), 20, 120), 5);
  for (std::size_t i = 0; i < small.servers.size(); ++i) {
    ASSERT_EQ(small.servers[i].id, large.servers[i].id);
    for (std::size_t t = 0; t < 120; ++t)
      ASSERT_DOUBLE_EQ(small.servers[i].cpu_util[t],
                       large.servers[i].cpu_util[t]);
  }
}

class PresetFidelity : public ::testing::TestWithParam<const char*> {};

TEST_P(PresetFidelity, FleetMeanUtilNearTarget) {
  auto spec = scaled_down(workload_spec_by_name(GetParam()), 250,
                          kHoursPerMonth);
  const auto dc = generate_datacenter(spec, kStudySeed);
  // Fleet-average CPU utilization within 25% of the Table 2 target (the
  // saturation ceiling and lognormal dispersion shave a little off).
  EXPECT_NEAR(dc.average_cpu_utilization() / spec.target_avg_cpu_util, 1.0,
              0.25);
}

TEST_P(PresetFidelity, WebFractionNearTarget) {
  auto spec = scaled_down(workload_spec_by_name(GetParam()), 400, 48);
  const auto dc = generate_datacenter(spec, kStudySeed);
  EXPECT_NEAR(dc.web_fraction(), spec.web_fraction, 0.12);
}

TEST_P(PresetFidelity, MemoryLessBurstyThanCpu) {
  // Observation 2, per data center: median memory CoV is far below median
  // CPU CoV.
  auto spec = scaled_down(workload_spec_by_name(GetParam()), 150,
                          kHoursPerMonth);
  const auto dc = generate_datacenter(spec, kStudySeed);
  std::vector<double> cpu_cov, mem_cov;
  for (const auto& s : dc.servers) {
    cpu_cov.push_back(s.cpu_util.cov());
    mem_cov.push_back(s.mem_mb.cov());
  }
  EXPECT_LT(percentile(mem_cov, 50), 0.5 * percentile(cpu_cov, 50));
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetFidelity,
                         ::testing::Values("A", "B", "C", "D"));

TEST(Presets, LookupByNameAndIndustry) {
  EXPECT_EQ(workload_spec_by_name("A").industry, "Banking");
  EXPECT_EQ(workload_spec_by_name("Airlines").name, "B");
  EXPECT_THROW(workload_spec_by_name("nope"), std::invalid_argument);
}

TEST(Presets, TableTwoShape) {
  const auto specs = all_workload_specs();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].num_servers, 816);
  EXPECT_EQ(specs[1].num_servers, 445);
  EXPECT_EQ(specs[2].num_servers, 1390);
  EXPECT_EQ(specs[3].num_servers, 722);
  EXPECT_DOUBLE_EQ(specs[0].target_avg_cpu_util, 0.05);
  EXPECT_DOUBLE_EQ(specs[1].target_avg_cpu_util, 0.01);
  EXPECT_DOUBLE_EQ(specs[2].target_avg_cpu_util, 0.12);
  EXPECT_DOUBLE_EQ(specs[3].target_avg_cpu_util, 0.06);
}

TEST(Generator, AppSharedBurstsCorrelateAppMembers) {
  // Two servers of the same app must show correlated bursts; servers of
  // different apps much less so. Build one app context and two members.
  WorkloadSpec spec = tiny_spec();
  spec.shared_burst_fraction = 0.9;
  spec.web_cpu.bursts_per_day = 2.0;
  spec.web_cpu.diurnal_peak_mult = 1.0;  // isolate the burst component
  spec.web_cpu.ar1_sigma = 0.01;
  spec.web_cpu.ar1_sigma_dispersion = 0.0;

  Rng rng(77);
  const AppContext app = make_app_context(spec, WorkloadClass::kWeb, rng);
  Rng r1(1), r2(2), r3(3);
  const auto s1 = generate_server(spec, WorkloadClass::kWeb, "s1", r1, &app);
  const auto s2 = generate_server(spec, WorkloadClass::kWeb, "s2", r2, &app);
  const auto s3 = generate_server(spec, WorkloadClass::kWeb, "s3", r3, nullptr);

  const double same_app = pearson_correlation(s1.cpu_util.samples(),
                                              s2.cpu_util.samples());
  const double diff_app = pearson_correlation(s1.cpu_util.samples(),
                                              s3.cpu_util.samples());
  EXPECT_GT(same_app, 0.4);
  EXPECT_GT(same_app, diff_app + 0.2);
}

TEST(Generator, MemoryFollowsCpuForCoupledServers) {
  WorkloadSpec spec = tiny_spec();
  spec.web_mem.coupled_fraction = 0.8;
  spec.web_mem.coupled_fraction_sigma = 0.0;
  spec.web_mem.linear_coupling_probability = 0.0;
  spec.web_mem.ar1_sigma = 0.001;
  Rng rng(9);
  const auto s = generate_server(spec, WorkloadClass::kWeb, "s", rng);
  EXPECT_GT(pearson_correlation(s.cpu_util.samples(), s.mem_mb.samples()),
            0.5);
}

// FNV-1a over every server of one estate: id, app, spec, class, and the
// bytes of each CPU and memory sample.
std::uint64_t estate_hash(const Datacenter& dc) {
  using testing::fnv1a;
  std::uint64_t h = testing::kFnvBasis;
  const auto text = [&](const std::string& s) {
    h = fnv1a(h, s.size(), 8);
    for (const char c : s) h = fnv1a(h, static_cast<unsigned char>(c), 1);
  };
  const auto real = [&](double x) {
    h = fnv1a(h, std::bit_cast<std::uint64_t>(x), 8);
  };
  for (const ServerTrace& s : dc.servers) {
    text(s.id);
    text(s.app);
    text(s.spec.model);
    for (const double x : {s.spec.cpu_rpe2, s.spec.memory_mb,
                           s.spec.idle_watts, s.spec.peak_watts,
                           s.spec.rack_units, s.spec.hardware_cost})
      real(x);
    h = fnv1a(h, static_cast<std::uint64_t>(s.klass), 1);
    for (const double x : s.cpu_util.samples()) real(x);
    for (const double x : s.mem_mb.samples()) real(x);
  }
  return h;
}

TEST(Generator, FullScalePresetsArePinned) {
  // The four Table-2 estates at full scale and kStudySeed, every byte the
  // generator produces. Recompute only for a deliberate generator change.
  const auto specs = all_workload_specs();
  const std::uint64_t expected[] = {
      14905000838761960462ULL, 17237429587073979541ULL,
      1261930793106009015ULL, 10696449548799432920ULL};
  ASSERT_EQ(specs.size(), std::size(expected));
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(estate_hash(generate_datacenter(specs[i], kStudySeed)),
              expected[i])
        << specs[i].name;
}

TEST(Datacenter, AggregateDemand) {
  const auto dc = generate_datacenter(tiny_spec(), 11);
  const auto agg = dc.aggregate_demand_at(0);
  double cpu = 0, mem = 0;
  for (const auto& s : dc.servers) {
    cpu += s.cpu_util[0] * s.spec.cpu_rpe2;
    mem += s.mem_mb[0];
  }
  EXPECT_NEAR(agg.cpu_rpe2, cpu, 1e-6);
  EXPECT_NEAR(agg.memory_mb, mem, 1e-6);
}

TEST(ServerTrace, CpuRpe2Conversion) {
  const auto dc = generate_datacenter(tiny_spec(), 12);
  const auto& s = dc.servers[0];
  const auto rpe2 = s.cpu_rpe2();
  ASSERT_EQ(rpe2.size(), s.cpu_util.size());
  for (std::size_t t = 0; t < rpe2.size(); ++t)
    EXPECT_DOUBLE_EQ(rpe2[t], s.cpu_util[t] * s.spec.cpu_rpe2);
}

}  // namespace
}  // namespace vmcw
