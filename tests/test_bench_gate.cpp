// Tests for the perf-regression gate (tools/bench_gate): sidecar parsing,
// key classification, and the tolerance-band comparison rules.

#include "gate.h"

#include <gtest/gtest.h>

#include <string>

namespace vmcw::bench_gate {
namespace {

const char* kSidecar = R"({
  "bench": "daemon_throughput",
  "wall_seconds": 0.8788,
  "decisions_per_sec": 44635.5,
  "frames": 26609,
  "decisions": 31510,
  "tick_p50_ms": 35.3998,
  "peak_rss_kb": 40820
}
)";

TEST(ParseSidecar, ReadsWriteBenchJsonOutput) {
  Sidecar sidecar;
  ASSERT_TRUE(parse_sidecar(kSidecar, sidecar));
  EXPECT_EQ(sidecar.bench, "daemon_throughput");
  EXPECT_DOUBLE_EQ(sidecar.metrics.at("wall_seconds"), 0.8788);
  EXPECT_DOUBLE_EQ(sidecar.metrics.at("decisions_per_sec"), 44635.5);
  EXPECT_DOUBLE_EQ(sidecar.metrics.at("frames"), 26609);
  EXPECT_DOUBLE_EQ(sidecar.metrics.at("peak_rss_kb"), 40820);
  EXPECT_EQ(sidecar.metrics.count("bench"), 0u);  // strings are not metrics
}

TEST(ParseSidecar, RejectsGarbage) {
  Sidecar sidecar;
  EXPECT_FALSE(parse_sidecar("", sidecar));
  EXPECT_FALSE(parse_sidecar("not json", sidecar));
  EXPECT_FALSE(parse_sidecar("{\"a\": }", sidecar));
  EXPECT_FALSE(parse_sidecar("{\"a\": 1", sidecar));
  EXPECT_TRUE(parse_sidecar("{}", sidecar));
}

TEST(KeyClassifiers, RouteKeysToTheRightRule) {
  EXPECT_TRUE(rate_key("decisions_per_sec"));
  EXPECT_TRUE(rate_key("packed_vms_per_sec"));
  EXPECT_FALSE(rate_key("wall_seconds"));
  EXPECT_TRUE(time_key("wall_seconds"));
  EXPECT_TRUE(time_key("tick_p99_ms"));
  EXPECT_TRUE(time_key("peak_rss_kb"));
  EXPECT_TRUE(structural_key("frames"));
  EXPECT_TRUE(structural_key("decisions"));
  EXPECT_TRUE(structural_key("hosts_used"));
  EXPECT_FALSE(structural_key("tick_p50_ms"));
  // The ceiling is a configuration echo, not a measurement: neither
  // structural nor judged.
  EXPECT_FALSE(structural_key("peak_rss_ceiling_kb"));
  EXPECT_FALSE(rate_key("peak_rss_ceiling_kb"));
}

Sidecar make_sidecar() {
  Sidecar s;
  s.bench = std::string("t");
  s.metrics = {{"wall_seconds", 10.0},
               {"cells_per_sec", 100.0},
               {"frames", 500.0},
               {"peak_rss_kb", 1000.0}};
  return s;
}

TEST(Compare, PassesWithinTolerance) {
  const Sidecar base = make_sidecar();
  Sidecar fresh = make_sidecar();
  fresh.metrics["cells_per_sec"] = 80.0;   // -20%, tolerance 40%
  fresh.metrics["wall_seconds"] = 15.0;    // +50%, tolerance 100%
  const Comparison c = compare(base, fresh, GateOptions{});
  EXPECT_EQ(c.verdict, Verdict::kPass);
  EXPECT_FALSE(c.lines.empty());
}

TEST(Compare, FailsOnRateRegression) {
  const Sidecar base = make_sidecar();
  Sidecar fresh = make_sidecar();
  fresh.metrics["cells_per_sec"] = 50.0;  // halved: past the 40% band
  const Comparison c = compare(base, fresh, GateOptions{});
  EXPECT_EQ(c.verdict, Verdict::kFail);
}

TEST(Compare, FailsOnLatencyOrFootprintRegression) {
  const Sidecar base = make_sidecar();
  Sidecar slow = make_sidecar();
  slow.metrics["wall_seconds"] = 25.0;  // 2.5x: past the 100% band
  EXPECT_EQ(compare(base, slow, GateOptions{}).verdict, Verdict::kFail);

  Sidecar fat = make_sidecar();
  fat.metrics["peak_rss_kb"] = 5000.0;
  EXPECT_EQ(compare(base, fat, GateOptions{}).verdict, Verdict::kFail);
}

TEST(Compare, SkipsOnStructuralMismatch) {
  const Sidecar base = make_sidecar();
  Sidecar fresh = make_sidecar();
  fresh.metrics["frames"] = 250.0;         // different scale
  fresh.metrics["cells_per_sec"] = 1.0;    // would fail, but not comparable
  const Comparison c = compare(base, fresh, GateOptions{});
  EXPECT_EQ(c.verdict, Verdict::kSkippedScaleMismatch);
}

TEST(Compare, IgnoresKeysMissingFromEitherSide) {
  // Baselines may carry record-keeping keys (e.g. pre-optimization
  // latencies) that fresh runs do not emit; fresh runs may add metrics the
  // baseline predates. Neither should affect the verdict.
  Sidecar base = make_sidecar();
  base.metrics["tick_p50_ms_before_capacity_index"] = 79.6;
  Sidecar fresh = make_sidecar();
  fresh.metrics["new_metric_ms"] = 1e9;
  EXPECT_EQ(compare(base, fresh, GateOptions{}).verdict, Verdict::kPass);
}

TEST(Compare, TightenedToleranceCatchesSmallerDrops) {
  const Sidecar base = make_sidecar();
  Sidecar fresh = make_sidecar();
  fresh.metrics["cells_per_sec"] = 80.0;
  GateOptions strict;
  strict.rate_tolerance = 0.1;
  EXPECT_EQ(compare(base, fresh, strict).verdict, Verdict::kFail);
}

}  // namespace
}  // namespace vmcw::bench_gate
