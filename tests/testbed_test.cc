// Tests for the ground-truth testbed: catalog-rate reproduction, phase-
// aware sprinting, timeout/budget plumbing, and run-statistics invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/testbed/testbed.h"

namespace msprint {
namespace {

TestbedConfig BaseConfig(WorkloadId id) {
  TestbedConfig config;
  config.mix = QueryMix::Single(id);
  config.policy.mechanism = MechanismId::kDvfs;
  config.policy.timeout_seconds = 60.0;
  config.policy.budget_fraction = 0.4;
  config.policy.refill_seconds = 200.0;
  config.utilization = 0.5;
  config.num_queries = 3000;
  config.warmup_queries = 300;
  config.seed = 101;
  return config;
}

class TestbedRateTest : public ::testing::TestWithParam<WorkloadId> {};

TEST_P(TestbedRateTest, UnsprintedProcessingMatchesCatalogServiceRate) {
  TestbedConfig config = BaseConfig(GetParam());
  config.disable_sprinting = true;
  const RunTrace trace = Testbed::Run(config);
  const auto& spec = WorkloadCatalog::Get().spec(GetParam());
  const double measured_qph =
      kSecondsPerHour / trace.mean_unsprinted_processing_time;
  // Load overhead inflates service times slightly; allow 4%.
  EXPECT_NEAR(measured_qph, spec.sustained_qph_dvfs,
              0.04 * spec.sustained_qph_dvfs)
      << spec.name;
  EXPECT_DOUBLE_EQ(trace.fraction_sprinted, 0.0);
}

TEST_P(TestbedRateTest, FullSprintMatchesCatalogBurstRate) {
  TestbedConfig config = BaseConfig(GetParam());
  config.force_full_sprint = true;
  const RunTrace trace = Testbed::Run(config);
  const auto& spec = WorkloadCatalog::Get().spec(GetParam());
  const double measured_qph = kSecondsPerHour / trace.mean_processing_time;
  EXPECT_NEAR(measured_qph, spec.burst_qph_dvfs, 0.05 * spec.burst_qph_dvfs)
      << spec.name;
  EXPECT_DOUBLE_EQ(trace.fraction_sprinted, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TestbedRateTest,
                         ::testing::ValuesIn(AllWorkloads()),
                         [](const auto& info) { return ToString(info.param); });

TEST(TestbedTest, SustainedRateMatchesMixArithmetic) {
  SprintPolicy policy;
  policy.mechanism = MechanismId::kDvfs;
  const double solo_qph =
      Testbed::SustainedRatePerSecond(QueryMix::Single(WorkloadId::kJacobi),
                                      policy) *
      kSecondsPerHour;
  EXPECT_NEAR(solo_qph, 51.0, 1e-9);
  const double mix_qph =
      Testbed::SustainedRatePerSecond(MakeMixOne(), policy) * kSecondsPerHour;
  EXPECT_NEAR(mix_qph, 35.0, 0.5);  // Section 3.4's measured Mix I rate
}

TEST(TestbedTest, SprintedRemainingSecondsWholeRun) {
  const auto& spec = WorkloadCatalog::Get().spec(WorkloadId::kJacobi);
  DvfsMechanism dvfs;
  const double total = 100.0;
  const double sprinted =
      Testbed::SprintedRemainingSeconds(spec, dvfs, 0.0, total);
  // Whole-run sprint must land at total / marginal speedup.
  EXPECT_NEAR(sprinted, total / dvfs.MarginalSpeedup(spec), 0.5);
}

TEST(TestbedTest, SprintedRemainingDecreasesWithProgress) {
  const auto& spec = WorkloadCatalog::Get().spec(WorkloadId::kLeuk);
  DvfsMechanism dvfs;
  double prev = 1e18;
  for (double progress : {0.0, 0.25, 0.5, 0.75, 0.95}) {
    const double remaining =
        Testbed::SprintedRemainingSeconds(spec, dvfs, progress, 100.0);
    EXPECT_LT(remaining, prev);
    prev = remaining;
  }
  EXPECT_DOUBLE_EQ(
      Testbed::SprintedRemainingSeconds(spec, dvfs, 1.0, 100.0), 0.0);
}

TEST(TestbedTest, LateSprintsGainLessOnPhasedWorkloads) {
  // Leuk's sprint-friendly work is front-loaded: sprinting only the second
  // half must yield a smaller speedup on that half than the whole-run
  // (marginal) speedup — Section 3.2's "late timeouts" effect.
  const auto& spec = WorkloadCatalog::Get().spec(WorkloadId::kLeuk);
  DvfsMechanism dvfs;
  const double total = 100.0;
  const double tail_sprinted =
      Testbed::SprintedRemainingSeconds(spec, dvfs, 0.5, total);
  const double tail_speedup = (0.5 * total) / tail_sprinted;
  EXPECT_LT(tail_speedup, dvfs.MarginalSpeedup(spec) * 0.95);
}

TEST(TestbedTest, HigherUtilizationRaisesResponseTime) {
  TestbedConfig low = BaseConfig(WorkloadId::kJacobi);
  low.disable_sprinting = true;
  low.utilization = 0.3;
  TestbedConfig high = low;
  high.utilization = 0.9;
  EXPECT_LT(Testbed::Run(low).mean_response_time,
            Testbed::Run(high).mean_response_time);
}

TEST(TestbedTest, SprintingImprovesResponseTimeUnderLoad) {
  TestbedConfig off = BaseConfig(WorkloadId::kSparkKmeans);
  off.utilization = 0.85;
  off.disable_sprinting = true;
  TestbedConfig on = off;
  on.disable_sprinting = false;
  on.policy.timeout_seconds = 30.0;
  on.policy.budget_fraction = 0.8;
  EXPECT_LT(Testbed::Run(on).mean_response_time,
            Testbed::Run(off).mean_response_time);
}

TEST(TestbedTest, TimestampInvariants) {
  const RunTrace trace = Testbed::Run(BaseConfig(WorkloadId::kBfs));
  for (const auto& q : trace.queries) {
    EXPECT_GE(q.start, q.arrival);
    EXPECT_GT(q.depart, q.start);
    if (q.sprinted) {
      EXPECT_TRUE(q.timed_out);
      EXPECT_GE(q.sprint_begin, q.start);
      EXPECT_GT(q.sprint_seconds, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(q.sprint_seconds, 0.0);
    }
  }
}

TEST(TestbedTest, SprintedFractionRespondsToTimeout) {
  TestbedConfig eager = BaseConfig(WorkloadId::kJacobi);
  eager.policy.timeout_seconds = 5.0;
  eager.utilization = 0.8;
  TestbedConfig lazy = eager;
  lazy.policy.timeout_seconds = 500.0;
  EXPECT_GT(Testbed::Run(eager).fraction_sprinted,
            Testbed::Run(lazy).fraction_sprinted);
}

TEST(TestbedTest, MixRunsContainAllMembers) {
  TestbedConfig config = BaseConfig(WorkloadId::kJacobi);
  config.mix = MakeMixOne();
  const RunTrace trace = Testbed::Run(config);
  size_t jacobi = 0;
  size_t stream = 0;
  for (const auto& q : trace.queries) {
    if (q.workload == WorkloadId::kJacobi) {
      ++jacobi;
    } else if (q.workload == WorkloadId::kSparkStream) {
      ++stream;
    }
  }
  EXPECT_GT(jacobi, trace.queries.size() / 4);
  EXPECT_GT(stream, trace.queries.size() / 4);
  EXPECT_EQ(jacobi + stream, trace.queries.size());
}

TEST(TestbedTest, DeterministicGivenSeed) {
  const TestbedConfig config = BaseConfig(WorkloadId::kKnn);
  const RunTrace a = Testbed::Run(config);
  const RunTrace b = Testbed::Run(config);
  EXPECT_DOUBLE_EQ(a.mean_response_time, b.mean_response_time);
  EXPECT_EQ(a.queries.size(), b.queries.size());
}

TEST(TestbedTest, WarmupShrinksTrace) {
  TestbedConfig config = BaseConfig(WorkloadId::kMem);
  config.num_queries = 1000;
  config.warmup_queries = 400;
  EXPECT_EQ(Testbed::Run(config).queries.size(), 600u);
}

TEST(TestbedTest, InvalidConfigThrows) {
  TestbedConfig config = BaseConfig(WorkloadId::kJacobi);
  config.num_queries = 0;
  EXPECT_THROW(Testbed::Run(config), std::invalid_argument);
  config = BaseConfig(WorkloadId::kJacobi);
  config.utilization = 0.0;
  EXPECT_THROW(Testbed::Run(config), std::invalid_argument);
  config = BaseConfig(WorkloadId::kJacobi);
  config.slots = 0;
  EXPECT_THROW(Testbed::Run(config), std::invalid_argument);

  // Non-finite or out-of-range knobs used to yield NaN means, instant
  // sprints or negative service instead of an error.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& corrupt : std::vector<std::function<void(TestbedConfig&)>>{
           [&](TestbedConfig& c) { c.utilization = nan; },
           [&](TestbedConfig& c) { c.utilization = inf; },
           [&](TestbedConfig& c) { c.utilization = -0.5; },
           [&](TestbedConfig& c) { c.service_time_scale = nan; },
           [&](TestbedConfig& c) { c.service_time_scale = -1.0; },
           [&](TestbedConfig& c) { c.sprint_boost = nan; },
           [&](TestbedConfig& c) { c.sprint_boost = inf; },
           [&](TestbedConfig& c) { c.sprint_boost = -0.5; },
           [&](TestbedConfig& c) { c.policy.timeout_seconds = nan; },
       }) {
    config = BaseConfig(WorkloadId::kJacobi);
    corrupt(config);
    EXPECT_THROW(Testbed::Run(config), std::invalid_argument);
  }
  // disable_sprinting runs with an infinite timeout; a zero boost (sprints
  // save nothing) is a legal what-if.
  config = BaseConfig(WorkloadId::kJacobi);
  config.num_queries = 200;
  config.warmup_queries = 20;
  config.disable_sprinting = true;
  EXPECT_NO_THROW(Testbed::Run(config));
  config.disable_sprinting = false;
  config.sprint_boost = 0.0;
  EXPECT_NO_THROW(Testbed::Run(config));
}

TEST(TestbedTest, PercentileResponseTimeHasDefinedEdgeBehavior) {
  // An empty trace reports 0.0 rather than indexing into nothing.
  const RunTrace empty;
  EXPECT_DOUBLE_EQ(empty.PercentileResponseTime(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.PercentileResponseTime(-1.0), 0.0);

  TestbedConfig config = BaseConfig(WorkloadId::kJacobi);
  config.num_queries = 300;
  config.warmup_queries = 30;
  const RunTrace trace = Testbed::Run(config);
  const std::vector<double> times = trace.ResponseTimes();
  ASSERT_FALSE(times.empty());
  const double min = *std::min_element(times.begin(), times.end());
  const double max = *std::max_element(times.begin(), times.end());
  EXPECT_DOUBLE_EQ(trace.PercentileResponseTime(0.0), min);
  EXPECT_DOUBLE_EQ(trace.PercentileResponseTime(1.0), max);
  // Out-of-range fractions clamp instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(trace.PercentileResponseTime(-0.5), min);
  EXPECT_DOUBLE_EQ(trace.PercentileResponseTime(2.0), max);
  // NaN is a caller bug and is rejected loudly, never cast to an index.
  EXPECT_THROW(trace.PercentileResponseTime(
                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(TestbedTest, CoreScalePlatformSlowerSustainedButSprints) {
  TestbedConfig config = BaseConfig(WorkloadId::kJacobi);
  config.policy.mechanism = MechanismId::kCoreScale;
  config.disable_sprinting = true;
  const RunTrace trace = Testbed::Run(config);
  // Section 3.3: Jacobi takes ~202 s on the 8-core sustained platform.
  EXPECT_NEAR(trace.mean_unsprinted_processing_time, 202.0, 10.0);
}

}  // namespace
}  // namespace msprint
