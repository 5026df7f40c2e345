// Tests for the deterministic fault-injection substrate (src/fault) and
// its integration with the testbed and the self-healing OnlineAdvisor:
// seed-stable fault plans, stateless per-query decisions, breaker
// abort/lockout semantics, and the storm integration test pinning the
// graceful-degradation ladder's value.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/fault/fault.h"
#include "src/online/advisor.h"
#include "src/testbed/testbed.h"

namespace msprint {
namespace {

// ------------------------------------------------------------- fault plan

FaultPlanConfig StormPlanConfig() {
  FaultPlanConfig config;
  config.seed = 9;
  config.toggle_failure_probability = 0.3;
  config.breaker_trips_per_hour = 4.0;
  config.breaker_cooldown_seconds = 300.0;
  config.outlier_probability = 0.1;
  config.outlier_multiplier = 8.0;
  config.flash_crowds_per_hour = 2.0;
  config.flash_crowd_duration_seconds = 120.0;
  config.flash_crowd_intensity = 4.0;
  return config;
}

TEST(FaultPlanTest, DefaultConfigInjectsNothing) {
  const FaultPlanConfig config;
  EXPECT_FALSE(config.Enabled());
  const FaultPlan plan = FaultPlan::Generate(config, 1, 100000.0);
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.breaker_windows().empty());
  EXPECT_TRUE(plan.flash_crowd_windows().empty());
  const QueryFaults faults = plan.ForQuery(17);
  EXPECT_FALSE(faults.toggle_fails);
  EXPECT_DOUBLE_EQ(faults.service_multiplier, 1.0);
}

TEST(FaultPlanTest, PerQueryDecisionsAreStateless) {
  const FaultPlan plan = FaultPlan::Generate(StormPlanConfig(), 1, 3600.0);
  // Forward sweep, then reversed and repeated lookups, must agree: the
  // i-th query's faults cannot depend on evaluation order or count.
  std::vector<QueryFaults> forward;
  for (uint64_t i = 0; i < 256; ++i) {
    forward.push_back(plan.ForQuery(i));
  }
  for (uint64_t i = 256; i-- > 0;) {
    const QueryFaults again = plan.ForQuery(i);
    const QueryFaults& first = forward[i];
    EXPECT_EQ(again.toggle_fails, first.toggle_fails) << i;
    EXPECT_EQ(again.service_multiplier, first.service_multiplier) << i;
  }
}

TEST(FaultPlanTest, ExplicitSeedOverridesRunSeed) {
  FaultPlanConfig config = StormPlanConfig();
  config.seed = 42;
  const FaultPlan a = FaultPlan::Generate(config, 1, 36000.0);
  const FaultPlan b = FaultPlan::Generate(config, 999, 36000.0);
  ASSERT_EQ(a.breaker_windows().size(), b.breaker_windows().size());
  ASSERT_FALSE(a.breaker_windows().empty());
  for (size_t i = 0; i < a.breaker_windows().size(); ++i) {
    EXPECT_EQ(a.breaker_windows()[i].begin, b.breaker_windows()[i].begin);
  }
  // seed=0 derives from the run seed instead: different runs, different
  // storms.
  config.seed = 0;
  const FaultPlan c = FaultPlan::Generate(config, 1, 36000.0);
  const FaultPlan d = FaultPlan::Generate(config, 2, 36000.0);
  bool identical = c.breaker_windows().size() == d.breaker_windows().size();
  if (identical) {
    for (size_t i = 0; i < c.breaker_windows().size(); ++i) {
      identical = identical &&
                  c.breaker_windows()[i].begin == d.breaker_windows()[i].begin;
    }
  }
  EXPECT_FALSE(identical);
}

TEST(FaultPlanTest, BreakerWindowsMatchCooldown) {
  const FaultPlan plan = FaultPlan::Generate(StormPlanConfig(), 1, 36000.0);
  ASSERT_FALSE(plan.breaker_windows().empty());
  double previous_begin = -1.0;
  for (const TimeWindow& window : plan.breaker_windows()) {
    EXPECT_GT(window.begin, previous_begin);  // trip order
    EXPECT_NEAR(window.end - window.begin, 300.0, 1e-9);
    EXPECT_TRUE(plan.BreakerActiveAt(0.5 * (window.begin + window.end)));
    previous_begin = window.begin;
  }
  EXPECT_FALSE(plan.BreakerActiveAt(plan.breaker_windows().front().begin -
                                    1.0));
}

TEST(FaultPlanTest, FlashCrowdsMultiplyIntensityInsideWindows) {
  const FaultPlan plan = FaultPlan::Generate(StormPlanConfig(), 1, 72000.0);
  ASSERT_FALSE(plan.flash_crowd_windows().empty());
  const TimeWindow& window = plan.flash_crowd_windows().front();
  EXPECT_DOUBLE_EQ(plan.ArrivalIntensityAt(0.5 * (window.begin + window.end)),
                   4.0);
  EXPECT_DOUBLE_EQ(plan.ArrivalIntensityAt(window.begin - 1.0), 1.0);
}

TEST(FaultPlanTest, FaultRatesMatchConfiguredProbabilities) {
  const FaultPlan plan = FaultPlan::Generate(StormPlanConfig(), 1, 3600.0);
  size_t toggle_fails = 0;
  size_t outliers = 0;
  const uint64_t samples = 20000;
  for (uint64_t i = 0; i < samples; ++i) {
    const QueryFaults faults = plan.ForQuery(i);
    toggle_fails += faults.toggle_fails ? 1 : 0;
    if (faults.service_multiplier > 1.0) {
      ++outliers;
      EXPECT_DOUBLE_EQ(faults.service_multiplier, 8.0);
    }
  }
  EXPECT_NEAR(static_cast<double>(toggle_fails) / samples, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(outliers) / samples, 0.1, 0.02);
}

TEST(FormatFaultTraceTest, OneLinePerEvent) {
  FaultTrace trace;
  trace.push_back({1.5, FaultKind::kBreakerTrip, FaultEvent::kNoQuery, 120.0});
  trace.push_back({2.5, FaultKind::kToggleFailure, 7, 0.0});
  const std::string text = FormatFaultTrace(trace);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("breaker-trip"), std::string::npos);
  EXPECT_NE(text.find("query=7"), std::string::npos);
}

// --------------------------------------------------------------- testbed

TestbedConfig StormTestbedConfig() {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.mechanism = MechanismId::kDvfs;
  config.policy.timeout_seconds = 40.0;
  config.policy.budget_fraction = 0.3;
  config.policy.refill_seconds = 200.0;
  config.utilization = 0.6;
  config.num_queries = 1500;
  config.warmup_queries = 150;
  config.seed = 303;
  return config;
}

TEST(TestbedFaultTest, FaultFreeRunHasEmptyTrace) {
  const RunTrace trace = Testbed::Run(StormTestbedConfig());
  EXPECT_TRUE(trace.fault_trace.empty());
  EXPECT_GT(trace.fraction_sprinted, 0.0);
}

TEST(TestbedFaultTest, ToggleFailuresForceSustainedRuns) {
  TestbedConfig config = StormTestbedConfig();
  config.faults.toggle_failure_probability = 1.0;
  const RunTrace trace = Testbed::Run(config);
  EXPECT_DOUBLE_EQ(trace.fraction_sprinted, 0.0);
  ASSERT_FALSE(trace.fault_trace.empty());
  for (const FaultEvent& event : trace.fault_trace) {
    EXPECT_EQ(event.kind, FaultKind::kToggleFailure);
    EXPECT_NE(event.query, FaultEvent::kNoQuery);
  }
}

TEST(TestbedFaultTest, OutliersInflateProcessingTime) {
  TestbedConfig config = StormTestbedConfig();
  const RunTrace baseline = Testbed::Run(config);
  config.faults.outlier_probability = 0.15;
  config.faults.outlier_multiplier = 8.0;
  const RunTrace stormy = Testbed::Run(config);
  EXPECT_GT(stormy.mean_processing_time, baseline.mean_processing_time);
  const bool has_outlier =
      std::any_of(stormy.fault_trace.begin(), stormy.fault_trace.end(),
                  [](const FaultEvent& event) {
                    return event.kind == FaultKind::kServiceOutlier &&
                           event.detail == 8.0;
                  });
  EXPECT_TRUE(has_outlier);
}

TEST(TestbedFaultTest, FlashCrowdsRaiseQueueingDelay) {
  TestbedConfig config = StormTestbedConfig();
  const RunTrace baseline = Testbed::Run(config);
  config.faults.flash_crowds_per_hour = 3.0;
  config.faults.flash_crowd_duration_seconds = 600.0;
  config.faults.flash_crowd_intensity = 5.0;
  const RunTrace stormy = Testbed::Run(config);
  EXPECT_GT(stormy.mean_queueing_delay, baseline.mean_queueing_delay);
}

TEST(TestbedFaultTest, BreakerStormAbortsLocksOutAndRespectsBudget) {
  TestbedConfig config = StormTestbedConfig();
  config.faults.breaker_trips_per_hour = 6.0;
  config.faults.breaker_cooldown_seconds = 600.0;
  const RunTrace trace = Testbed::Run(config);

  // Every query still completes, with finite times.
  ASSERT_EQ(trace.queries.size(),
            config.num_queries - config.warmup_queries);
  double max_sprint_seconds = 0.0;
  for (const Query& q : trace.queries) {
    ASSERT_TRUE(std::isfinite(q.depart));
    ASSERT_GE(q.depart, q.arrival);
    max_sprint_seconds = std::max(max_sprint_seconds, q.sprint_seconds);
  }

  size_t trips = 0;
  size_t aborts = 0;
  double previous_time = 0.0;
  for (const FaultEvent& event : trace.fault_trace) {
    EXPECT_GE(event.time, previous_time);  // simulated-time order
    previous_time = event.time;
    if (event.kind == FaultKind::kBreakerTrip) {
      ++trips;
      EXPECT_DOUBLE_EQ(event.detail, 600.0);
    } else if (event.kind == FaultKind::kSprintAbort) {
      ++aborts;
      EXPECT_NE(event.query, FaultEvent::kNoQuery);
    }
  }
  EXPECT_GT(trips, 0u);
  EXPECT_GT(aborts, 0u);

  // Budget safety: consumed sprint-seconds cannot exceed the initial
  // capacity plus everything the bucket refilled over the run, plus at
  // most one in-flight sprint's worth of debt (aborts debit retroactively).
  const double capacity = config.policy.BudgetCapacitySeconds();
  const double refill_rate = capacity / config.policy.refill_seconds;
  EXPECT_LE(trace.total_sprint_seconds,
            capacity + refill_rate * trace.makespan + max_sprint_seconds +
                1.0);

  // Lockouts suppress sprinting relative to the fault-free run.
  TestbedConfig clean = StormTestbedConfig();
  const RunTrace baseline = Testbed::Run(clean);
  EXPECT_LT(trace.fraction_sprinted, baseline.fraction_sprinted);
}

TEST(TestbedFaultTest, StormReplaysByteIdentically) {
  TestbedConfig config = StormTestbedConfig();
  config.faults = StormPlanConfig();
  config.faults.seed = 0;  // derive from the run seed
  const RunTrace a = Testbed::Run(config);
  const RunTrace b = Testbed::Run(config);
  ASSERT_FALSE(a.fault_trace.empty());
  EXPECT_EQ(FormatFaultTrace(a.fault_trace), FormatFaultTrace(b.fault_trace));
  EXPECT_EQ(a.mean_response_time, b.mean_response_time);
  EXPECT_EQ(a.total_sprint_seconds, b.total_sprint_seconds);
  EXPECT_EQ(a.makespan, b.makespan);
}

// ------------------------------------------------- advisor ladder (storm)

// A hybrid model that has silently stopped matching reality: it predicts
// near-zero response times no matter what, luring the policy into
// aggressive sprinting that a breaker storm then punishes.
class BrokenHybridModel final : public PerformanceModel {
 public:
  std::string name() const override { return "BrokenHybrid"; }
  double PredictResponseTime(const WorkloadProfile&,
                             const ModelInput& input) const override {
    return 1.0 + 0.001 * input.timeout_seconds;
  }
};

WorkloadProfile StormProfile() {
  WorkloadProfile profile;
  profile.service_rate_per_second = 0.1;
  profile.marginal_rate_per_second = 0.15;
  profile.service_time_samples.assign(100, 10.0);
  return profile;
}

AdvisorConfig StormAdvisorConfig(bool ladder_enabled) {
  AdvisorConfig config;
  config.rate_window_seconds = 400.0;
  config.explore.max_iterations = 60;
  config.explore.seed = 7;
  config.fallback_sim = {800, 100, 1, 97};
  config.health_window_count = 12;
  config.health_min_observations = 6;
  config.replan_backoff_seconds = 10.0;
  if (!ladder_enabled) {
    // Watchdog can never fire: the advisor trusts the broken model forever.
    config.degrade_error_threshold = 1e18;
  }
  return config;
}

struct StormOutcome {
  double mean_response_time = 0.0;
  size_t transitions = 0;
  bool visited_fallback = false;
  bool recovered_to_hybrid = false;
};

// Closed-loop storm: the world punishes trusting the broken hybrid model
// (sprint thrash under breaker trips -> 60 s responses) and rewards the
// fallback rungs (8 s). Observed response times match the active model's
// prediction only on the fallback rungs, so a ladder-enabled advisor
// demotes away from the broken model and probationally promotes back.
StormOutcome DriveStorm(OnlineAdvisor& advisor) {
  StormOutcome outcome;
  double total = 0.0;
  size_t samples = 0;
  bool was_on_fallback = false;
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    t += 20.0;
    advisor.OnArrival(t);
    advisor.OnCompletion(t, 10.0);
    const auto recommendation = advisor.Recommend(t);
    if (!recommendation.has_value()) {
      continue;
    }
    const bool on_hybrid = recommendation->rung == AdvisorRung::kHybrid;
    outcome.visited_fallback = outcome.visited_fallback || !on_hybrid;
    outcome.recovered_to_hybrid =
        outcome.recovered_to_hybrid || (was_on_fallback && on_hybrid);
    was_on_fallback = !on_hybrid;

    total += on_hybrid ? 60.0 : 8.0;
    ++samples;

    const double predicted =
        std::max(1e-9, recommendation->predicted_response_time);
    advisor.OnObservedResponseTime(t,
                                   on_hybrid ? predicted * 10.0 : predicted);
  }
  outcome.mean_response_time = samples > 0 ? total / samples : 0.0;
  outcome.transitions = advisor.rung_transition_count();
  return outcome;
}

TEST(AdvisorStormTest, LadderDegradesRecoversAndBeatsNoLadder) {
  const BrokenHybridModel model;
  const WorkloadProfile profile = StormProfile();

  OnlineAdvisor with_ladder(model, profile, StormAdvisorConfig(true));
  const StormOutcome ladder = DriveStorm(with_ladder);

  OnlineAdvisor without_ladder(model, profile, StormAdvisorConfig(false));
  const StormOutcome baseline = DriveStorm(without_ladder);

  // The watchdog moved the ladder at least once, reached a fallback rung,
  // and probationally promoted back toward the hybrid model.
  EXPECT_GE(ladder.transitions, 2u);
  EXPECT_TRUE(ladder.visited_fallback);
  EXPECT_TRUE(ladder.recovered_to_hybrid);

  // Without the ladder the advisor never leaves the broken model.
  EXPECT_EQ(baseline.transitions, 0u);
  EXPECT_FALSE(baseline.visited_fallback);

  // Graceful degradation pays: storm-mean response time strictly improves.
  EXPECT_LT(ladder.mean_response_time, baseline.mean_response_time);
}

}  // namespace
}  // namespace msprint
