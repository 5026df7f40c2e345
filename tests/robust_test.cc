// Tests for the overload-robustness layer (src/robust): admission
// policies, the deterministic client retry model, bit-exact
// serialization with fail-closed corruption handling, .storm config
// parsing, and the A/B storm bench's protection gate (DESIGN.md §14).

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/persist/persist.h"
#include "src/robust/admission.h"
#include "src/robust/retry.h"
#include "src/robust/storm.h"

namespace msprint {
namespace robust {
namespace {

using persist::Reader;
using persist::Writer;

// ---------------------------------------------------------- admission

TEST(AdmissionTest, NonePolicyAdmitsEverything) {
  AdmissionController controller(AdmissionConfig{}, 1);
  for (size_t queue = 0; queue < 1000; queue += 100) {
    EXPECT_TRUE(controller.Admit(0.0, queue, 1.0));
  }
  EXPECT_EQ(controller.shed_count(), 0u);
  EXPECT_EQ(controller.admitted_count(), 10u);
}

TEST(AdmissionTest, QueueCapShedsAtTheCap) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kQueueCap;
  config.queue_cap = 4;
  AdmissionController controller(config, 1);
  EXPECT_TRUE(controller.Admit(0.0, 3, 60.0));
  EXPECT_FALSE(controller.Admit(0.0, 4, 60.0));
  EXPECT_FALSE(controller.Admit(0.0, 9, 60.0));
  EXPECT_EQ(controller.admitted_count(), 1u);
  EXPECT_EQ(controller.shed_count(), 2u);
}

TEST(AdmissionTest, DeadlineAwareShedsPredictedLateArrivals) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kDeadlineAware;
  config.deadline_slack = 1.0;
  AdmissionController controller(config, 1);
  // No service samples yet: the estimate is zero and everything admits.
  EXPECT_TRUE(controller.Admit(0.0, 1000, 1.0));
  controller.OnServiceSample(10.0);
  EXPECT_DOUBLE_EQ(controller.ServiceEstimateSeconds(), 10.0);
  EXPECT_DOUBLE_EQ(controller.PredictedWaitSeconds(4), 40.0);
  // Predicted wait 20 <= timeout 30: the query can still make it.
  EXPECT_TRUE(controller.Admit(0.0, 2, 30.0));
  // Predicted wait 40 > timeout 30: admitting is guaranteed badput.
  EXPECT_FALSE(controller.Admit(0.0, 4, 30.0));
  // Corrupt samples never poison the estimate.
  controller.OnServiceSample(-1.0);
  controller.OnServiceSample(0.0);
  EXPECT_DOUBLE_EQ(controller.ServiceEstimateSeconds(), 10.0);
}

TEST(AdmissionTest, MoreSlotsPredictShorterWaits) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kDeadlineAware;
  AdmissionController controller(config, 4);
  controller.OnServiceSample(10.0);
  EXPECT_DOUBLE_EQ(controller.PredictedWaitSeconds(4), 10.0);
}

TEST(AdmissionTest, CoDelEntersAndLeavesDropMode) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kCoDel;
  config.codel_target_seconds = 5.0;
  config.codel_interval_seconds = 100.0;
  AdmissionController controller(config, 1);
  // Sojourn above target, but not yet for a full interval: still admits.
  controller.OnDispatch(0.0, 20.0);
  controller.OnDispatch(50.0, 20.0);
  EXPECT_TRUE(controller.Admit(60.0, 1, 60.0));
  // A full interval above target arms drop mode; the next arrival sheds
  // and the control law schedules the following drop sooner than one
  // interval away (interval / sqrt(drop_count)).
  controller.OnDispatch(100.0, 20.0);
  EXPECT_FALSE(controller.Admit(101.0, 1, 60.0));
  EXPECT_TRUE(controller.Admit(102.0, 1, 60.0));   // before drop_next_
  EXPECT_FALSE(controller.Admit(201.0, 1, 60.0));  // past it: sheds again
  // One sojourn below target resets the controller entirely.
  controller.OnDispatch(202.0, 1.0);
  EXPECT_TRUE(controller.Admit(300.0, 1, 60.0));
  EXPECT_EQ(controller.shed_count(), 2u);
}

TEST(AdmissionTest, SerializationRoundTripsBitExactly) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kCoDel;
  config.queue_cap = 7;
  config.deadline_slack = 1.5;
  AdmissionController controller(config, 2);
  controller.OnServiceSample(12.5);
  controller.OnDispatch(0.0, 50.0);
  controller.OnDispatch(100.0, 50.0);
  controller.Admit(101.0, 3, 60.0);
  Writer w;
  controller.Serialize(w);
  Reader r(w.bytes());
  AdmissionController restored = AdmissionController::Deserialize(r);
  Writer again;
  restored.Serialize(again);
  EXPECT_EQ(again.bytes(), w.bytes());
  EXPECT_EQ(restored.shed_count(), controller.shed_count());
  EXPECT_DOUBLE_EQ(restored.ServiceEstimateSeconds(),
                   controller.ServiceEstimateSeconds());
}

TEST(AdmissionTest, DeserializeFailsClosedOnCorruption) {
  AdmissionController controller(AdmissionConfig{}, 1);
  Writer w;
  controller.Serialize(w);
  const std::string bytes = w.bytes();
  {
    const std::string truncated = bytes.substr(0, bytes.size() / 2);
    Reader r(truncated);
    EXPECT_THROW(AdmissionController::Deserialize(r), persist::PersistError);
  }
  {
    std::string bad = bytes;
    bad[0] = static_cast<char>(250);  // policy byte out of range
    Reader r(bad);
    EXPECT_THROW(AdmissionController::Deserialize(r), persist::PersistError);
  }
}

// -------------------------------------------------------------- retry

TEST(RetryTest, BackoffIsDeterministicAndExponential) {
  RetryConfig config;
  config.enabled = true;
  config.max_attempts = 4;
  config.backoff_base_seconds = 10.0;
  config.backoff_multiplier = 2.0;
  config.backoff_jitter_fraction = 0.5;
  RetryModel a(config, 42);
  RetryModel b(config, 42);
  for (size_t attempt = 1; attempt < config.max_attempts; ++attempt) {
    const double expected_floor = 10.0 * std::pow(2.0, attempt - 1.0);
    const double da = a.NextRetryDelay(17, attempt, 0.0);
    // Pure function of (seed, request, attempt): a fresh model, or one
    // with different history, computes the identical delay.
    EXPECT_DOUBLE_EQ(b.NextRetryDelay(17, attempt, 0.0), da);
    EXPECT_GE(da, expected_floor);
    EXPECT_LE(da, expected_floor * 1.5);
  }
  // Attempts exhausted: the client gives up.
  EXPECT_LT(a.NextRetryDelay(17, config.max_attempts, 0.0), 0.0);
  EXPECT_EQ(a.retries_granted(), 3u);
  EXPECT_EQ(a.retries_exhausted(), 1u);
  // A different seed jitters differently somewhere in the stream.
  RetryModel c(config, 43);
  bool any_differs = false;
  for (uint64_t id = 0; id < 8 && !any_differs; ++id) {
    RetryModel fresh(config, 42);
    any_differs = fresh.NextRetryDelay(id, 1, 0.0) !=
                  c.NextRetryDelay(id, 1, 0.0);
  }
  EXPECT_TRUE(any_differs);
}

TEST(RetryTest, DisabledModelNeverRetries) {
  RetryModel model(RetryConfig{}, 1);
  EXPECT_FALSE(model.enabled());
  EXPECT_LT(model.NextRetryDelay(0, 1, 0.0), 0.0);
}

TEST(RetryTest, BudgetRunsDryAndSuccessRefunds) {
  RetryConfig config;
  config.enabled = true;
  config.max_attempts = 100;
  config.clients = 1;
  config.budget_tokens = 2.0;
  config.retry_token_cost = 1.0;
  config.success_refund_tokens = 0.5;
  RetryModel model(config, 1);
  EXPECT_GE(model.NextRetryDelay(5, 1, 0.0), 0.0);
  EXPECT_GE(model.NextRetryDelay(5, 2, 0.0), 0.0);
  // Bucket dry: the client that only sees failures stops retrying.
  EXPECT_LT(model.NextRetryDelay(5, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(model.ClientTokens(0), 0.0);
  // Two successes earn one token back; refunds cap at the initial grant.
  model.OnSuccess(5);
  model.OnSuccess(5);
  EXPECT_DOUBLE_EQ(model.ClientTokens(0), 1.0);
  EXPECT_GE(model.NextRetryDelay(5, 3, 0.0), 0.0);
  for (int i = 0; i < 100; ++i) {
    model.OnSuccess(5);
  }
  EXPECT_DOUBLE_EQ(model.ClientTokens(0), config.budget_tokens);
  EXPECT_EQ(model.retries_exhausted(), 1u);
}

TEST(RetryTest, ThrottleStretchesBackoffUnderShedPressure) {
  RetryConfig config;
  config.enabled = true;
  config.max_attempts = 10;
  config.backoff_jitter_fraction = 0.0;  // isolate the throttle factor
  config.throttle_shed_threshold = 0.3;
  config.throttle_factor = 4.0;
  RetryModel calm(config, 9);
  RetryModel stormy(config, 9);
  const double base = calm.NextRetryDelay(3, 1, 0.0);
  const double stretched = stormy.NextRetryDelay(3, 1, 0.9);
  EXPECT_DOUBLE_EQ(stretched, base * config.throttle_factor);
  EXPECT_EQ(calm.retries_throttled(), 0u);
  EXPECT_EQ(stormy.retries_throttled(), 1u);
  // At the threshold exactly: no throttle (strict >).
  RetryModel edge(config, 9);
  EXPECT_DOUBLE_EQ(edge.NextRetryDelay(3, 1, 0.3), base);
}

TEST(RetryTest, SerializationRoundTripsBitExactly) {
  RetryConfig config;
  config.enabled = true;
  config.clients = 4;
  config.budget_tokens = 3.0;
  RetryModel model(config, 77);
  model.NextRetryDelay(1, 1, 0.0);
  model.NextRetryDelay(2, 1, 0.9);
  model.OnSuccess(3);
  Writer w;
  model.Serialize(w);
  Reader r(w.bytes());
  RetryModel restored = RetryModel::Deserialize(r);
  Writer again;
  restored.Serialize(again);
  EXPECT_EQ(again.bytes(), w.bytes());
  // Restored jitter stream continues identically.
  EXPECT_DOUBLE_EQ(restored.NextRetryDelay(9, 2, 0.0),
                   model.NextRetryDelay(9, 2, 0.0));
}

TEST(RetryTest, DeserializeFailsClosedOnCorruption) {
  RetryModel model(RetryConfig{}, 1);
  Writer w;
  model.Serialize(w);
  const std::string bytes = w.bytes();
  const std::string truncated = bytes.substr(0, bytes.size() - 3);
  Reader r(truncated);
  EXPECT_THROW(RetryModel::Deserialize(r), persist::PersistError);
}

// -------------------------------------------------------------- storm

TEST(StormTest, ParseStormConfigParsesKeysAndFailsClosed) {
  const StormConfig parsed = ParseStormConfig(
      "# comment\n"
      "workload = Jacobi\n"
      "seed = 9\n"
      "queries = 1234\n"
      "crowd_intensity = 8.5\n"
      "admission_policy = codel\n"
      "clients = 16\n");
  EXPECT_EQ(parsed.workload, WorkloadId::kJacobi);
  EXPECT_EQ(parsed.seed, 9u);
  EXPECT_EQ(parsed.queries, 1234u);
  EXPECT_DOUBLE_EQ(parsed.crowd_intensity, 8.5);
  EXPECT_EQ(parsed.admission_policy, AdmissionPolicy::kCoDel);
  EXPECT_EQ(parsed.clients, 16u);
  // Untouched keys keep their defaults.
  EXPECT_EQ(parsed.max_attempts, StormConfig{}.max_attempts);

  EXPECT_THROW(ParseStormConfig("warp_drive = 1\n"), std::invalid_argument);
  EXPECT_THROW(ParseStormConfig("queries = -4\n"), std::invalid_argument);
  EXPECT_THROW(ParseStormConfig("crowd_intensity = fast\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseStormConfig("workload = WarpCore\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseStormConfig("admission_policy = bouncer\n"),
               std::invalid_argument);
}

TEST(StormTest, MakeStormTestbedConfigSplitsTheABArms) {
  const StormConfig storm;
  const TestbedConfig baseline = MakeStormTestbedConfig(storm, false);
  const TestbedConfig hardened = MakeStormTestbedConfig(storm, true);
  EXPECT_EQ(baseline.admission.policy, AdmissionPolicy::kNone);
  EXPECT_EQ(baseline.retry.clients, 0u);
  EXPECT_EQ(hardened.admission.policy, storm.admission_policy);
  EXPECT_EQ(hardened.retry.clients, storm.clients);
  // Everything the clients and the storm share is identical across arms.
  EXPECT_EQ(baseline.seed, hardened.seed);
  EXPECT_EQ(baseline.num_queries, hardened.num_queries);
  EXPECT_DOUBLE_EQ(baseline.retry.abandon_wait_seconds,
                   hardened.retry.abandon_wait_seconds);
  EXPECT_EQ(baseline.retry.max_attempts, hardened.retry.max_attempts);
}

TEST(StormTest, ProtectionSustainsGoodputThroughTheStorm) {
  // The ISSUE's acceptance gate, in-tree: on the default storm the
  // hardened arm sustains at least twice the unprotected baseline's
  // goodput, and the baseline itself limps (nonzero goodput) so the
  // ratio is finite and meaningful rather than a division sentinel.
  const StormReport report = RunStormAB(StormConfig{});
  EXPECT_GT(report.baseline.goodput, 0u);
  EXPECT_GT(report.baseline.abandoned, report.baseline.goodput)
      << "storm too mild: the baseline never melted down";
  EXPECT_GE(report.goodput_ratio, 2.0);
  EXPECT_LT(report.goodput_ratio, 1e6) << "baseline collapsed to zero";
  EXPECT_GT(report.hardened.shed, 0u);
  EXPECT_LT(report.hardened.abandoned, report.baseline.abandoned);
  EXPECT_GE(report.hardened.goodput, 2 * report.baseline.goodput);
  // The report renders with the ratio and both arms.
  const std::string text = FormatStormReport(report);
  EXPECT_NE(text.find("side baseline"), std::string::npos);
  EXPECT_NE(text.find("side hardened"), std::string::npos);
  EXPECT_NE(text.find("goodput_ratio"), std::string::npos);

  // Streaming SLO telemetry (DESIGN.md §15) tells the two arms apart in
  // alerting behavior, not just throughput: both page during the crowd,
  // but the hardened server clears every alert and spends only a sliver
  // of its windows paging, while the unprotected baseline fires and
  // never clears — the metastable tail keeps it paging to the end.
  EXPECT_GE(report.hardened.first_alert_seconds, 0.0);
  EXPECT_GE(report.hardened.alert_fires, 1u);
  EXPECT_EQ(report.hardened.alert_clears, report.hardened.alert_fires);
  EXPECT_LT(report.hardened.paging_fraction, 0.2);
  EXPECT_GE(report.baseline.first_alert_seconds, 0.0);
  EXPECT_GT(report.baseline.alert_fires, report.baseline.alert_clears);
  EXPECT_GT(report.baseline.paging_fraction, 0.5);
  // Time-to-first-alert: the protected arm notices the storm no later
  // than the collapsing baseline does.
  EXPECT_LE(report.hardened.first_alert_seconds,
            report.baseline.first_alert_seconds);
  EXPECT_NE(text.find("slo first_alert"), std::string::npos);
}

}  // namespace
}  // namespace robust
}  // namespace msprint
