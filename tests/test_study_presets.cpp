// Cross-preset integration tests: the Section 5 orderings that define the
// paper's findings, asserted on scaled-down versions of all four estates.
//
// These are the repository's regression net for the calibrated presets: if
// generator tuning ever drifts far enough to flip a headline finding, one
// of these fails.

#include <gtest/gtest.h>

#include "analysis/burstiness.h"
#include "analysis/resource_ratio.h"
#include "core/study.h"
#include "trace/generator.h"
#include "trace/presets.h"

namespace vmcw {
namespace {

struct PresetCase {
  const char* name;
  int servers;
};

// Prints the preset letter only. Without this gtest falls back to a byte
// dump of the struct, which holds a pointer and padding, so the listed test
// names (and the CTest names discovered from them) changed on every run.
// With the default index suffix, CTest names the cases ".../A" to ".../D".
void PrintTo(const PresetCase& c, std::ostream* os) { *os << c.name; }

class StudyPreset : public ::testing::TestWithParam<PresetCase> {
 protected:
  StudyResult run() const {
    const auto spec = scaled_down(workload_spec_by_name(GetParam().name),
                                  GetParam().servers, kHoursPerMonth);
    return run_study(generate_datacenter(spec, kStudySeed), StudySettings{});
  }
};

TEST_P(StudyPreset, VanillaNormalizesToOne) {
  const auto study = run();
  EXPECT_DOUBLE_EQ(study.normalized_space_cost(Algorithm::kSemiStatic), 1.0);
  EXPECT_DOUBLE_EQ(study.normalized_power_cost(Algorithm::kSemiStatic), 1.0);
}

TEST_P(StudyPreset, StochasticNeverWorseThanVanilla) {
  // Observation 5's partner fact: intelligent semi-static consolidation
  // dominates vanilla on both axes for every workload.
  const auto study = run();
  EXPECT_LE(study.normalized_space_cost(Algorithm::kStochastic), 1.0 + 1e-9);
  EXPECT_LE(study.normalized_power_cost(Algorithm::kStochastic), 1.01);
}

TEST_P(StudyPreset, StaticVariantsNeverContendMuch) {
  // Fig 8: static-variant contention is at most isolated hours.
  const auto study = run();
  EXPECT_LT(study.get(Algorithm::kSemiStatic)
                .emulation.contention_time_fraction(),
            0.03);
  EXPECT_LT(study.get(Algorithm::kStochastic)
                .emulation.contention_time_fraction(),
            0.03);
}

TEST_P(StudyPreset, OnlyDynamicMigrates) {
  const auto study = run();
  EXPECT_EQ(study.get(Algorithm::kSemiStatic).total_migrations, 0u);
  EXPECT_EQ(study.get(Algorithm::kStochastic).total_migrations, 0u);
  EXPECT_GT(study.get(Algorithm::kDynamic).total_migrations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, StudyPreset,
    ::testing::Values(PresetCase{"A", 150}, PresetCase{"B", 150},
                      PresetCase{"C", 200}, PresetCase{"D", 150}));

TEST(StudyHeadlines, MemoryBoundEstatesLoseWithDynamic) {
  // Fig 7(a) for Airlines: the 20% reservation makes dynamic strictly
  // worse than both static variants on space.
  const auto spec = scaled_down(airlines_spec(), 150, kHoursPerMonth);
  const auto study =
      run_study(generate_datacenter(spec, kStudySeed), StudySettings{});
  EXPECT_GT(study.normalized_space_cost(Algorithm::kDynamic), 1.05);
  EXPECT_GT(study.normalized_power_cost(Algorithm::kDynamic), 1.0);
}

TEST(StudyHeadlines, BurstyEstateWinsPowerWithDynamic) {
  // Fig 7(b) for Banking: dynamic cuts power far below both static plans.
  const auto spec = scaled_down(banking_spec(), 150, kHoursPerMonth);
  const auto study =
      run_study(generate_datacenter(spec, kStudySeed), StudySettings{});
  EXPECT_LT(study.normalized_power_cost(Algorithm::kDynamic),
            0.75 * study.normalized_power_cost(Algorithm::kStochastic));
}

TEST(StudyHeadlines, BankingCrossoverNearFifteenPercentReservation) {
  // Fig 13: dynamic meets stochastic somewhere in the U = 0.80-0.95 band.
  const auto spec = scaled_down(banking_spec(), 200, kHoursPerMonth);
  const auto dc = generate_datacenter(spec, kStudySeed);
  const std::vector<double> bounds{0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00};
  const auto sweep = sensitivity_sweep(dc, StudySettings{}, bounds);
  double crossover = -1.0;
  for (const auto& p : sweep.dynamic_points) {
    if (p.dynamic_hosts <= sweep.stochastic_hosts) {
      crossover = p.utilization_bound;
      break;
    }
  }
  ASSERT_GT(crossover, 0.0) << "dynamic never reached stochastic";
  EXPECT_GE(crossover, 0.75);
  EXPECT_LE(crossover, 0.95);
}

TEST(StudyHeadlines, AirlinesRatioFarBelowBlade) {
  // Fig 6(b): the airline estate's CPU:memory ratio stays below 50.
  const auto spec = scaled_down(airlines_spec(), 150, kHoursPerMonth);
  const auto dc = generate_datacenter(spec, kStudySeed);
  const auto cdf = resource_ratio_cdf(dc, 2, 336);
  EXPECT_LT(cdf.max(), 50.0);
}

TEST(StudyHeadlines, BurstinessOrderingAcrossEstates) {
  // Fig 3's ordering of heavy-tailed fractions: A ~ D >> B >> C.
  auto heavy = [](const char* name) {
    const auto spec =
        scaled_down(workload_spec_by_name(name), 200, kHoursPerMonth);
    return heavy_tailed_fraction(
        burstiness(generate_datacenter(spec, kStudySeed), Resource::kCpu, 1));
  };
  const double a = heavy("A"), b = heavy("B"), c = heavy("C"), d = heavy("D");
  EXPECT_GT(a, b);
  EXPECT_GT(d, b);
  EXPECT_GT(b, c);
  EXPECT_GT(a, 0.35);
  EXPECT_LT(c, 0.15);
}

}  // namespace
}  // namespace vmcw
