// Tests for the timeout-aware queue simulator: classic queueing-theory
// validation (M/M/1, M/D/1, M/M/k — the paper validates its simulator on
// "classic MMK workloads" with ~5% error), hand-computable sprint
// semantics, budget accounting, and conformance between the event-driven
// simulator and the literal Algorithm 1 tick loop.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/sim/queue_simulator.h"
#include "src/sim/tick_simulator.h"

namespace msprint {
namespace {

// Disables sprinting for baseline queueing tests.
SimConfig NoSprintConfig(const Distribution& service, double arrival_rate,
                         size_t n = 60000) {
  SimConfig config;
  config.arrival_rate_per_second = arrival_rate;
  config.service = &service;
  config.sprint_speedup = 1.0;
  config.timeout_seconds = 1e18;
  config.budget_capacity_seconds = 0.0;
  config.budget_refill_seconds = 1.0;
  config.num_queries = n;
  config.warmup_queries = n / 10;
  config.seed = 7;
  return config;
}

// M/M/1 mean response time: 1 / (mu - lambda).
TEST(QueueTheoryTest, MM1MeanResponseTime) {
  const ExponentialDistribution service(1.0);  // mu = 1
  for (double lambda : {0.3, 0.5, 0.7}) {
    // Higher utilization needs a longer horizon for the run mean to settle.
    const SimConfig config =
        NoSprintConfig(service, lambda, lambda > 0.6 ? 400000 : 60000);
    const SimResult result = SimulateQueue(config);
    const double analytic = 1.0 / (1.0 - lambda);
    EXPECT_NEAR(result.mean_response_time, analytic, 0.05 * analytic)
        << "lambda=" << lambda;
  }
}

// M/D/1 mean waiting time: rho / (2 mu (1 - rho)).
TEST(QueueTheoryTest, MD1MeanQueueingDelay) {
  const DeterministicDistribution service(1.0);
  const double lambda = 0.6;
  const SimConfig config = NoSprintConfig(service, lambda);
  const SimResult result = SimulateQueue(config);
  const double analytic = lambda / (2.0 * (1.0 - lambda));
  EXPECT_NEAR(result.mean_queueing_delay, analytic, 0.05 * analytic);
}

// M/M/k via Erlang C. The paper's simulator achieved ~5% median error on
// MMK validation; we hold ours to the same bar.
double ErlangCWait(double lambda, double mu, int k) {
  const double a = lambda / mu;  // offered load
  double sum = 0.0;
  double term = 1.0;
  for (int i = 0; i < k; ++i) {
    if (i > 0) {
      term *= a / i;
    }
    sum += term;
  }
  const double last = term * a / k;
  const double p_wait = last / ((1.0 - a / k) * sum + last);
  return p_wait / (k * mu - lambda);
}

TEST(QueueTheoryTest, MM2MeanResponseTime) {
  const ExponentialDistribution service(1.0);
  const double lambda = 1.2;  // rho = 0.6 with k = 2
  SimConfig config = NoSprintConfig(service, lambda);
  config.slots = 2;
  const SimResult result = SimulateQueue(config);
  const double analytic = ErlangCWait(lambda, 1.0, 2) + 1.0;
  EXPECT_NEAR(result.mean_response_time, analytic, 0.05 * analytic);
}

TEST(QueueTheoryTest, MM4MeanResponseTime) {
  const ExponentialDistribution service(1.0);
  const double lambda = 3.0;  // rho = 0.75 with k = 4
  SimConfig config = NoSprintConfig(service, lambda, 80000);
  config.slots = 4;
  const SimResult result = SimulateQueue(config);
  const double analytic = ErlangCWait(lambda, 1.0, 4) + 1.0;
  EXPECT_NEAR(result.mean_response_time, analytic, 0.05 * analytic);
}

// ------------------------------------------------ sprint semantics (exact)

// A single query whose timeout fires mid-execution: Equation 1 finishes the
// remaining work at the sprint speedup.
TEST(SprintSemanticsTest, MidExecutionSprintMatchesEquation1) {
  const DeterministicDistribution service(10.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.001;  // deterministic interarrival 1000s
  config.arrival_kind = DistributionKind::kDeterministic;
  config.service = &service;
  config.sprint_speedup = 2.0;
  config.timeout_seconds = 4.0;
  config.budget_capacity_seconds = 1000.0;
  config.budget_refill_seconds = 1000.0;
  config.num_queries = 1;
  config.seed = 1;

  std::vector<SimQuery> trace;
  const SimResult result = SimulateQueue(config, &trace);
  ASSERT_EQ(trace.size(), 1u);
  // Arrival at t=1000, dispatch immediately, timeout at t=1004 with 6 s of
  // work left -> 3 s sprinted. Depart at 1007, response time 7.
  EXPECT_DOUBLE_EQ(trace[0].arrival, 1000.0);
  EXPECT_DOUBLE_EQ(trace[0].start, 1000.0);
  EXPECT_TRUE(trace[0].timed_out);
  EXPECT_TRUE(trace[0].sprinted);
  EXPECT_DOUBLE_EQ(trace[0].depart, 1007.0);
  EXPECT_DOUBLE_EQ(result.mean_response_time, 7.0);
  EXPECT_DOUBLE_EQ(trace[0].sprint_seconds, 3.0);
}

// Two queries: the first sprints mid-flight; the second's timeout fires
// while it waits in the queue, so it sprints from its first instruction.
TEST(SprintSemanticsTest, QueuedTimeoutSprintsWholeExecution) {
  const DeterministicDistribution service(25.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.1;  // arrivals at t=10, 20
  config.arrival_kind = DistributionKind::kDeterministic;
  config.service = &service;
  config.sprint_speedup = 2.0;
  config.timeout_seconds = 5.0;
  config.budget_capacity_seconds = 1000.0;
  config.budget_refill_seconds = 1000.0;
  config.num_queries = 2;
  config.seed = 1;

  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  ASSERT_EQ(trace.size(), 2u);
  // Q1: starts at 10, timeout at 15, remaining (35-15)/2 = 10 -> depart 25.
  EXPECT_DOUBLE_EQ(trace[0].depart, 25.0);
  // Q2: arrives 20, timeout at 25 fires exactly at dispatch -> whole
  // execution sprints: depart 25 + 25/2 = 37.5.
  EXPECT_DOUBLE_EQ(trace[1].start, 25.0);
  EXPECT_TRUE(trace[1].sprinted);
  EXPECT_DOUBLE_EQ(trace[1].depart, 37.5);
  EXPECT_DOUBLE_EQ(trace[1].sprint_seconds, 12.5);
}

TEST(SprintSemanticsTest, EmptyBudgetBlocksSprint) {
  const DeterministicDistribution service(10.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.05;  // arrivals at 20, 40
  config.arrival_kind = DistributionKind::kDeterministic;
  config.service = &service;
  config.sprint_speedup = 2.0;
  config.timeout_seconds = 2.0;
  // 4 s capacity, negligible refill (well under the budget epsilon over
  // the run): Q1's mid-flight sprint debits exactly 4 s, emptying the
  // bucket; Q2 finds it empty.
  config.budget_capacity_seconds = 4.0;
  config.budget_refill_seconds = 4.0e13;
  config.num_queries = 2;
  config.seed = 1;

  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_TRUE(trace[0].sprinted);
  EXPECT_TRUE(trace[1].timed_out);
  EXPECT_FALSE(trace[1].sprinted);
  // Q2 runs at the sustained rate: depart 40 + 10.
  EXPECT_DOUBLE_EQ(trace[1].depart, 50.0);
}

TEST(SprintSemanticsTest, ZeroTimeoutSprintsEveryQuery) {
  const DeterministicDistribution service(10.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.01;
  config.arrival_kind = DistributionKind::kDeterministic;
  config.service = &service;
  config.sprint_speedup = 2.0;
  config.timeout_seconds = 0.0;
  config.budget_capacity_seconds = 1e9;
  config.budget_refill_seconds = 10.0;
  config.num_queries = 50;
  config.seed = 1;

  const SimResult result = SimulateQueue(config);
  EXPECT_DOUBLE_EQ(result.fraction_sprinted, 1.0);
  EXPECT_DOUBLE_EQ(result.fraction_timed_out, 1.0);
  // Every execution takes service/speedup = 5 s with no queueing.
  EXPECT_DOUBLE_EQ(result.mean_response_time, 5.0);
}

TEST(SprintSemanticsTest, InfiniteTimeoutNeverSprints) {
  const ExponentialDistribution service(1.0);
  SimConfig config = NoSprintConfig(service, 0.5, 5000);
  config.sprint_speedup = 5.0;  // irrelevant: timeout never fires
  const SimResult result = SimulateQueue(config);
  EXPECT_DOUBLE_EQ(result.fraction_sprinted, 0.0);
  EXPECT_DOUBLE_EQ(result.fraction_timed_out, 0.0);
  EXPECT_DOUBLE_EQ(result.total_sprint_seconds, 0.0);
}

TEST(SprintSemanticsTest, SprintingReducesResponseTime) {
  const ExponentialDistribution service(1.0);
  SimConfig config = NoSprintConfig(service, 0.8, 40000);
  const double baseline = SimulateQueue(config).mean_response_time;
  config.timeout_seconds = 2.0;
  config.sprint_speedup = 2.0;
  config.budget_capacity_seconds = 50.0;
  config.budget_refill_seconds = 100.0;
  const double sprinted = SimulateQueue(config).mean_response_time;
  EXPECT_LT(sprinted, baseline);
}

TEST(SprintSemanticsTest, BiggerBudgetHelpsMore) {
  const ExponentialDistribution service(1.0);
  SimConfig config = NoSprintConfig(service, 0.85, 40000);
  config.timeout_seconds = 3.0;
  config.sprint_speedup = 2.0;
  config.budget_refill_seconds = 100.0;
  config.budget_capacity_seconds = 5.0;
  const double tight = SimulateQueue(config).mean_response_time;
  config.budget_capacity_seconds = 80.0;
  const double loose = SimulateQueue(config).mean_response_time;
  EXPECT_LT(loose, tight);
}

TEST(SprintSemanticsTest, SlowdownSpeedupAllowed) {
  // Effective rates below the service rate are admissible (Equation 2's
  // adjustment can be negative); a "sprint" can then hurt.
  const DeterministicDistribution service(10.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.001;
  config.arrival_kind = DistributionKind::kDeterministic;
  config.service = &service;
  config.sprint_speedup = 0.5;
  config.timeout_seconds = 0.0;
  config.budget_capacity_seconds = 1e6;
  config.budget_refill_seconds = 1e6;
  config.num_queries = 1;
  config.seed = 1;
  const SimResult result = SimulateQueue(config);
  EXPECT_DOUBLE_EQ(result.mean_response_time, 20.0);
}

// --------------------------------------------------------- bookkeeping

TEST(SimBookkeepingTest, WarmupExcludedFromStats) {
  const DeterministicDistribution service(1.0);
  SimConfig config = NoSprintConfig(service, 0.5, 100);
  config.arrival_kind = DistributionKind::kDeterministic;
  config.warmup_queries = 90;
  const SimResult result = SimulateQueue(config);
  EXPECT_EQ(result.response_times.size(), 10u);
}

TEST(SimBookkeepingTest, ResultPercentilesMatchVector) {
  const ExponentialDistribution service(1.0);
  const SimConfig config = NoSprintConfig(service, 0.5, 5000);
  const SimResult result = SimulateQueue(config);
  EXPECT_DOUBLE_EQ(result.MedianResponseTime(),
                   Median(result.response_times));
  EXPECT_DOUBLE_EQ(result.PercentileResponseTime(0.99),
                   Quantile(result.response_times, 0.99));
}

TEST(SimBookkeepingTest, PercentileHasDefinedEdgeBehavior) {
  const SimResult empty;
  EXPECT_DOUBLE_EQ(empty.PercentileResponseTime(0.5), 0.0);

  SimResult result;
  result.response_times = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(result.PercentileResponseTime(0.0), 1.0);
  EXPECT_DOUBLE_EQ(result.PercentileResponseTime(1.0), 3.0);
  // Out-of-range fractions clamp; NaN is rejected, never cast to an index.
  EXPECT_DOUBLE_EQ(result.PercentileResponseTime(-2.0), 1.0);
  EXPECT_DOUBLE_EQ(result.PercentileResponseTime(5.0), 3.0);
  EXPECT_THROW(result.PercentileResponseTime(
                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(SimBookkeepingTest, FifoOrderPreserved) {
  const ExponentialDistribution service(1.0);
  SimConfig config = NoSprintConfig(service, 0.9, 2000);
  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].start, trace[i - 1].start);
  }
}

TEST(SimBookkeepingTest, InvalidConfigThrows) {
  const ExponentialDistribution service(1.0);
  SimConfig config = NoSprintConfig(service, 0.5);
  config.service = nullptr;
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);
  config = NoSprintConfig(service, 0.5);
  config.num_queries = 0;
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);
  config = NoSprintConfig(service, 0.5);
  config.sprint_speedup = 0.0;
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);
  config = NoSprintConfig(service, 0.5);
  config.slots = 0;
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);

  // Non-finite or non-positive rates, speedups and scales, and a NaN
  // timeout, used to yield silently wrong results instead of an error.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& corrupt : std::vector<std::function<void(SimConfig&)>>{
           [&](SimConfig& c) { c.service_time_scale = -1.0; },
           [&](SimConfig& c) { c.service_time_scale = 0.0; },
           [&](SimConfig& c) { c.service_time_scale = nan; },
           [&](SimConfig& c) { c.service_time_scale = inf; },
           [&](SimConfig& c) { c.arrival_rate_per_second = nan; },
           [&](SimConfig& c) { c.arrival_rate_per_second = inf; },
           [&](SimConfig& c) { c.arrival_rate_per_second = -0.5; },
           [&](SimConfig& c) { c.sprint_speedup = nan; },
           [&](SimConfig& c) { c.sprint_speedup = inf; },
           [&](SimConfig& c) { c.sprint_speedup = -1.0; },
           [&](SimConfig& c) { c.timeout_seconds = nan; },
       }) {
    config = NoSprintConfig(service, 0.5);
    corrupt(config);
    EXPECT_THROW(SimulateQueue(config), std::invalid_argument);
  }
  // An infinite timeout is how callers disable sprinting: still legal.
  config = NoSprintConfig(service, 0.5, 200);
  config.timeout_seconds = inf;
  EXPECT_NO_THROW(SimulateQueue(config));
}

TEST(SimBookkeepingTest, DeterministicAcrossRuns) {
  const ExponentialDistribution service(1.0);
  const SimConfig config = NoSprintConfig(service, 0.7, 3000);
  const SimResult a = SimulateQueue(config);
  const SimResult b = SimulateQueue(config);
  EXPECT_DOUBLE_EQ(a.mean_response_time, b.mean_response_time);
}

// ------------------------------------------------------- trace replay

TEST(TraceReplayTest, RecordedArrivalsHonoredExactly) {
  const DeterministicDistribution service(5.0);
  const std::vector<double> recorded = {3.0, 7.0, 30.0, 31.0};
  SimConfig config = NoSprintConfig(service, 1.0, recorded.size());
  config.arrival_trace = &recorded;
  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  ASSERT_EQ(trace.size(), recorded.size());
  for (size_t i = 0; i < recorded.size(); ++i) {
    EXPECT_DOUBLE_EQ(trace[i].arrival, recorded[i]);
  }
  // Hand-check the queueing: q2 arrives at 7 while q1 (3..8) runs.
  EXPECT_DOUBLE_EQ(trace[1].start, 8.0);
  EXPECT_DOUBLE_EQ(trace[2].start, 30.0);
  EXPECT_DOUBLE_EQ(trace[3].start, 35.0);
}

TEST(TraceReplayTest, NumQueriesClampedToTraceLength) {
  const DeterministicDistribution service(1.0);
  const std::vector<double> recorded = {1.0, 2.0, 3.0};
  SimConfig config = NoSprintConfig(service, 1.0, 100);
  config.arrival_trace = &recorded;
  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  EXPECT_EQ(trace.size(), 3u);
}

TEST(TraceReplayTest, SprintingWorksOnReplayedTrace) {
  const DeterministicDistribution service(10.0);
  const std::vector<double> recorded = {100.0};
  SimConfig config;
  config.service = &service;
  config.arrival_trace = &recorded;
  config.sprint_speedup = 2.0;
  config.timeout_seconds = 4.0;
  config.budget_capacity_seconds = 100.0;
  config.budget_refill_seconds = 100.0;
  config.num_queries = 1;
  config.seed = 1;
  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  // Same Equation 1 arithmetic as the sampled-arrival case.
  EXPECT_DOUBLE_EQ(trace[0].depart, 107.0);
}

TEST(TraceReplayTest, InvalidTracesThrow) {
  const DeterministicDistribution service(1.0);
  const std::vector<double> empty;
  SimConfig config = NoSprintConfig(service, 1.0, 10);
  config.arrival_trace = &empty;
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);

  const std::vector<double> descending = {5.0, 4.0};
  config = NoSprintConfig(service, 1.0, 10);
  config.arrival_trace = &descending;
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);
}

// --------------------------------------- tick-loop conformance (Alg. 1)

struct ConformanceCase {
  double arrival_rate;
  double timeout;
  double speedup;
  double budget;
  uint64_t seed;
};

class TickConformanceTest
    : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(TickConformanceTest, EventSimMatchesTickSim) {
  const ConformanceCase param = GetParam();
  const ExponentialDistribution service(1.0 / 20.0);  // mean 20 s

  SimConfig config;
  config.arrival_rate_per_second = param.arrival_rate;
  config.service = &service;
  config.sprint_speedup = param.speedup;
  config.timeout_seconds = param.timeout;
  config.budget_capacity_seconds = param.budget;
  config.budget_refill_seconds = 200.0;
  config.num_queries = 800;
  config.seed = param.seed;

  const SimResult event_result = SimulateQueue(config);

  TickSimConfig tick_config;
  tick_config.base = config;
  tick_config.tick_seconds = 1e-3;
  const SimResult tick_result = SimulateQueueTicked(tick_config);

  // Identical inputs; the only divergence is millisecond quantization.
  EXPECT_NEAR(tick_result.mean_response_time, event_result.mean_response_time,
              0.01 * event_result.mean_response_time + 0.01);
  EXPECT_NEAR(tick_result.fraction_sprinted, event_result.fraction_sprinted,
              0.02);
  EXPECT_NEAR(tick_result.fraction_timed_out, event_result.fraction_timed_out,
              0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TickConformanceTest,
    ::testing::Values(ConformanceCase{0.02, 30.0, 1.5, 40.0, 11},
                      ConformanceCase{0.04, 15.0, 2.0, 20.0, 12},
                      ConformanceCase{0.01, 60.0, 1.2, 80.0, 13},
                      ConformanceCase{0.045, 5.0, 3.0, 10.0, 14},
                      ConformanceCase{0.03, 0.0, 2.0, 200.0, 15}));

}  // namespace
}  // namespace msprint
