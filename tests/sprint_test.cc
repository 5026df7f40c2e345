// Unit tests for sprint mechanisms (Table 1B), the marginal-speedup
// calibration invariant, the budget token bucket and sprint policies.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <tuple>

#include "src/sprint/budget.h"
#include "src/sprint/mechanism.h"
#include "src/sprint/policy.h"

namespace msprint {
namespace {

// Numerically integrates an execution where every instant is sprinted:
// whole-run speedup must equal the mechanism's marginal speedup. This is
// the calibration invariant that keeps the catalog's published burst
// throughputs exact.
double WholeRunSpeedup(const SprintMechanism& mechanism,
                       const WorkloadSpec& spec) {
  const int steps = 20000;
  double sprinted_time = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double tau = (i + 0.5) / steps;
    sprinted_time += (1.0 / steps) / mechanism.InstantSpeedup(spec, tau);
  }
  return 1.0 / sprinted_time;
}

using MechWorkload = std::tuple<MechanismId, WorkloadId>;

class MechanismCalibrationTest
    : public ::testing::TestWithParam<MechWorkload> {};

TEST_P(MechanismCalibrationTest, InstantSpeedupIntegratesToMarginal) {
  const auto [mech_id, wl_id] = GetParam();
  const auto mechanism = MakeMechanism(mech_id);
  const auto& spec = WorkloadCatalog::Get().spec(wl_id);
  EXPECT_NEAR(WholeRunSpeedup(*mechanism, spec),
              mechanism->MarginalSpeedup(spec),
              0.01 * mechanism->MarginalSpeedup(spec))
      << ToString(mech_id) << "/" << ToString(wl_id);
}

TEST_P(MechanismCalibrationTest, MarginalSpeedupAtLeastOne) {
  const auto [mech_id, wl_id] = GetParam();
  const auto mechanism = MakeMechanism(mech_id);
  const auto& spec = WorkloadCatalog::Get().spec(wl_id);
  EXPECT_GE(mechanism->MarginalSpeedup(spec), 1.0);
  EXPECT_GT(mechanism->SustainedServiceMultiplier(spec), 0.0);
  EXPECT_GE(mechanism->ToggleLatencySeconds(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, MechanismCalibrationTest,
    ::testing::Combine(::testing::Values(MechanismId::kDvfs,
                                         MechanismId::kCoreScale,
                                         MechanismId::kEc2Dvfs,
                                         MechanismId::kCpuThrottle),
                       ::testing::ValuesIn(AllWorkloads())),
    [](const auto& info) {
      return ToString(std::get<0>(info.param)) + "_" +
             ToString(std::get<1>(info.param));
    });

TEST(DvfsTest, MarginalSpeedupsMatchTable1C) {
  DvfsMechanism dvfs;
  const auto& catalog = WorkloadCatalog::Get();
  EXPECT_NEAR(dvfs.MarginalSpeedup(catalog.spec(WorkloadId::kJacobi)),
              74.0 / 51.0, 1e-9);
  EXPECT_NEAR(dvfs.MarginalSpeedup(catalog.spec(WorkloadId::kLeuk)),
              29.0 / 25.0, 1e-9);
  EXPECT_DOUBLE_EQ(
      dvfs.SustainedServiceMultiplier(catalog.spec(WorkloadId::kJacobi)),
      1.0);
}

TEST(CoreScaleTest, JacobiMatchesSection33) {
  // Section 3.3: Jacobi runs 202 s sustained on the core-scaling platform,
  // 108 s fully sprinted (1.87X), and the last ~11% of the run only speeds
  // up 1.5X.
  CoreScaleMechanism cores;
  const auto& spec = WorkloadCatalog::Get().spec(WorkloadId::kJacobi);
  EXPECT_NEAR(cores.SustainedServiceSeconds(spec), 202.0, 2.5);
  EXPECT_NEAR(cores.MarginalSpeedup(spec), 1.87, 0.02);
  EXPECT_NEAR(cores.InstantSpeedup(spec, 0.95), 1.5, 0.01);
}

TEST(CoreScaleTest, SpeedupDeclinesWithProgress) {
  CoreScaleMechanism cores;
  const auto& spec = WorkloadCatalog::Get().spec(WorkloadId::kJacobi);
  EXPECT_GT(cores.InstantSpeedup(spec, 0.1), cores.InstantSpeedup(spec, 0.95));
}

TEST(Ec2DvfsTest, MemoryBoundWorkloadsGainLess) {
  Ec2DvfsMechanism ec2;
  const auto& catalog = WorkloadCatalog::Get();
  const double compute_bound =
      ec2.MarginalSpeedup(catalog.spec(WorkloadId::kJacobi));
  const double memory_bound =
      ec2.MarginalSpeedup(catalog.spec(WorkloadId::kMem));
  EXPECT_GT(compute_bound, memory_bound);
  // Both bounded by the 2.0/1.4 clock ratio.
  EXPECT_LE(compute_bound, 2.0 / 1.4 + 1e-9);
  EXPECT_GT(memory_bound, 1.0);
}

TEST(CpuThrottleTest, MatchesSection43JacobiNumbers) {
  // Jacobi throttled to 20% of sprint throughput: sustained 14.8 qph,
  // sprint 74 qph.
  CpuThrottleMechanism throttle(0.2, 1.0);
  const auto& spec = WorkloadCatalog::Get().spec(WorkloadId::kJacobi);
  EXPECT_NEAR(throttle.SustainedRateQph(spec), 14.8, 0.01);
  EXPECT_NEAR(throttle.BurstRateQph(spec), 74.0, 0.01);
  EXPECT_DOUBLE_EQ(throttle.MarginalSpeedup(spec), 5.0);
}

TEST(CpuThrottleTest, SpeedupUniformAcrossProgress) {
  CpuThrottleMechanism throttle(0.25, 0.75);
  const auto& spec = WorkloadCatalog::Get().spec(WorkloadId::kLeuk);
  EXPECT_DOUBLE_EQ(throttle.InstantSpeedup(spec, 0.1),
                   throttle.InstantSpeedup(spec, 0.9));
  EXPECT_DOUBLE_EQ(throttle.MarginalSpeedup(spec), 3.0);
}

TEST(CpuThrottleTest, DegenerateNoThrottleAllowed) {
  CpuThrottleMechanism none(1.0, 1.0);
  const auto& spec = WorkloadCatalog::Get().spec(WorkloadId::kJacobi);
  EXPECT_DOUBLE_EQ(none.MarginalSpeedup(spec), 1.0);
}

TEST(CpuThrottleTest, InvalidFractionsThrow) {
  EXPECT_THROW(CpuThrottleMechanism(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(CpuThrottleMechanism(0.5, 0.4), std::invalid_argument);
  EXPECT_THROW(CpuThrottleMechanism(0.5, 1.1), std::invalid_argument);
}

TEST(MechanismTest, FactoryProducesCorrectIds) {
  for (MechanismId id : kAllMechanisms) {
    const auto mechanism = MakeMechanism(id);
    ASSERT_NE(mechanism, nullptr);
    EXPECT_EQ(mechanism->id(), id);
    EXPECT_FALSE(mechanism->Describe().empty());
  }
}

// ----------------------------------------------------------------- budget

TEST(BudgetTest, StartsFull) {
  SprintBudget budget(40.0, 200.0);
  EXPECT_DOUBLE_EQ(budget.Available(0.0), 40.0);
  EXPECT_DOUBLE_EQ(budget.capacity(), 40.0);
  EXPECT_DOUBLE_EQ(budget.refill_rate(), 0.2);
}

TEST(BudgetTest, FromFraction) {
  const SprintBudget budget = SprintBudget::FromFraction(0.2, 3600.0);
  EXPECT_DOUBLE_EQ(budget.capacity(), 720.0);  // AWS T2.small shape
}

TEST(BudgetTest, ConsumeAndRefill) {
  SprintBudget budget(40.0, 200.0);
  EXPECT_TRUE(budget.TryConsume(0.0, 30.0));
  EXPECT_DOUBLE_EQ(budget.Available(0.0), 10.0);
  // After 50 s, 10 more credits accrue (0.2/s).
  EXPECT_DOUBLE_EQ(budget.Available(50.0), 20.0);
  // Refill caps at capacity.
  EXPECT_DOUBLE_EQ(budget.Available(10000.0), 40.0);
}

TEST(BudgetTest, EmptyBucketRefillsFullyAfterRefillTime) {
  SprintBudget budget(40.0, 200.0);
  EXPECT_DOUBLE_EQ(budget.ConsumeUpTo(0.0, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(budget.Available(0.0), 0.0);
  EXPECT_NEAR(budget.Available(200.0), 40.0, 1e-9);
}

TEST(BudgetTest, TryConsumeFailsWhenInsufficient) {
  SprintBudget budget(10.0, 100.0);
  EXPECT_FALSE(budget.TryConsume(0.0, 20.0));
  EXPECT_DOUBLE_EQ(budget.Available(0.0), 10.0);  // nothing consumed
}

TEST(BudgetTest, ConsumeAllowingDebtGoesNegative) {
  SprintBudget budget(10.0, 100.0);
  budget.ConsumeAllowingDebt(0.0, 25.0);
  EXPECT_DOUBLE_EQ(budget.Available(0.0), -15.0);
  // Refill brings it back: 0.1 credits/s.
  EXPECT_NEAR(budget.Available(150.0), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(budget.total_consumed(), 25.0);
}

TEST(BudgetTest, TimeUntilAvailable) {
  SprintBudget budget(40.0, 200.0);
  budget.ConsumeUpTo(0.0, 40.0);
  EXPECT_DOUBLE_EQ(budget.TimeUntilAvailable(0.0, 10.0), 50.0);
  EXPECT_DOUBLE_EQ(budget.TimeUntilAvailable(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(budget.TimeUntilAvailable(0.0, 100.0)));
}

TEST(BudgetTest, ResetRestoresCapacity) {
  SprintBudget budget(40.0, 200.0);
  budget.ConsumeUpTo(0.0, 40.0);
  budget.Reset(10.0);
  EXPECT_DOUBLE_EQ(budget.Available(10.0), 40.0);
  EXPECT_DOUBLE_EQ(budget.total_consumed(), 0.0);
}

TEST(BudgetTest, InvalidParametersThrow) {
  EXPECT_THROW(SprintBudget(-1.0, 100.0), std::invalid_argument);
  EXPECT_THROW(SprintBudget(10.0, 0.0), std::invalid_argument);
}

TEST(BudgetTest, BackwardsTimeIsClampedNotHonored) {
  SprintBudget budget(40.0, 200.0);  // refill 0.2 s/s
  budget.ConsumeUpTo(100.0, 10.0);   // level 30, clock at t=100
  // A stale query (out-of-order telemetry) must neither rewind the clock
  // nor mint refill: the level reads as-of the newest time seen.
  EXPECT_DOUBLE_EQ(budget.Available(50.0), 30.0);
  EXPECT_EQ(budget.time_regressions(), 1u);
  // Refill resumes from t=100, not t=50: 30 + 0.2 * 50 caps at 40.
  EXPECT_DOUBLE_EQ(budget.Available(150.0), 40.0);
  EXPECT_EQ(budget.time_regressions(), 1u);
}

TEST(BudgetTest, BackwardsResetKeepsClockMonotonic) {
  SprintBudget budget(40.0, 200.0);
  budget.ConsumeUpTo(100.0, 40.0);
  budget.Reset(50.0);  // clamped to t=100
  EXPECT_EQ(budget.time_regressions(), 1u);
  EXPECT_DOUBLE_EQ(budget.Available(100.0), 40.0);
  EXPECT_EQ(budget.time_regressions(), 1u);  // t=100 is not a regression
}

TEST(BudgetTest, NonFiniteTimeThrows) {
  SprintBudget budget(40.0, 200.0);
  EXPECT_THROW(budget.Available(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(budget.Reset(-std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

// ----------------------------------------------------------------- policy

TEST(PolicyTest, BudgetCapacityFollowsFraction) {
  SprintPolicy policy;
  policy.budget_fraction = 0.25;
  policy.refill_seconds = 400.0;
  EXPECT_DOUBLE_EQ(policy.BudgetCapacitySeconds(), 100.0);
}

TEST(PolicyTest, MakePolicyMechanismUsesThrottleKnobs) {
  SprintPolicy policy;
  policy.mechanism = MechanismId::kCpuThrottle;
  policy.throttle_fraction = 0.3;
  policy.sprint_cpu_fraction = 0.9;
  const auto mechanism = MakePolicyMechanism(policy);
  const auto* throttle =
      dynamic_cast<const CpuThrottleMechanism*>(mechanism.get());
  ASSERT_NE(throttle, nullptr);
  EXPECT_DOUBLE_EQ(throttle->throttle_fraction(), 0.3);
  EXPECT_DOUBLE_EQ(throttle->sprint_fraction(), 0.9);
}

TEST(PolicyTest, DescribeMentionsKeySettings) {
  SprintPolicy policy;
  policy.timeout_seconds = 75.0;
  const std::string text = policy.Describe();
  EXPECT_NE(text.find("75"), std::string::npos);
  EXPECT_NE(text.find("DVFS"), std::string::npos);
}

}  // namespace
}  // namespace msprint
