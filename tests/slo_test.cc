// Tests for streaming SLO telemetry (src/obs/sketch, src/obs/slo):
// the mergeable quantile sketch (partition/order-independent bit-exact
// merges, relative-error rank bound, fail-closed wire format), the
// sim-time tumbling-window pipeline (signals, burn-rate alerts, anomaly
// detection, byte-stable exports), the exported summary's agreement with
// the sketch's nearest-rank rule, and the bit-exact state round trip that
// persistence builds on. The corruption harness over the checkpoint "slo"
// section lives in persist_test.cc; the cross-pool-size byte-identity of
// CLI exports is CI's obs job.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/recorder.h"
#include "src/obs/sketch.h"
#include "src/obs/slo.h"
#include "src/robust/storm.h"
#include "src/persist/persist.h"
#include "src/sim/queue_simulator.h"
#include "src/testbed/testbed.h"
#include "src/workload/workload.h"

namespace msprint {
namespace obs {
namespace {

// --- QuantileSketch -----------------------------------------------------

TEST(QuantileSketchTest, EmptySketchIsZero) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_EQ(sketch.min(), 0.0);
  EXPECT_EQ(sketch.max(), 0.0);
  EXPECT_EQ(sketch.ApproxMean(), 0.0);
}

TEST(QuantileSketchTest, SingleSampleIsItsOwnSummary) {
  QuantileSketch sketch(kRegistryAccuracy);
  ASSERT_TRUE(sketch.Insert(0.042));
  EXPECT_EQ(sketch.count(), 1u);
  // One sample: every representative is clamped to the observed range, so
  // mean and all quantiles equal the sample exactly.
  EXPECT_EQ(sketch.min(), 0.042);
  EXPECT_EQ(sketch.max(), 0.042);
  EXPECT_EQ(sketch.ApproxMean(), 0.042);
  EXPECT_EQ(sketch.Quantile(0.0), 0.042);
  EXPECT_EQ(sketch.Quantile(0.99), 0.042);
}

TEST(QuantileSketchTest, RejectsNonFiniteAndNegative) {
  QuantileSketch sketch;
  EXPECT_FALSE(sketch.Insert(-1.0));
  EXPECT_FALSE(sketch.Insert(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(sketch.Insert(std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(sketch.Insert(1.0));
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_EQ(sketch.rejected(), 3u);
}

TEST(QuantileSketchTest, RejectionsDoNotPoisonBounds) {
  QuantileSketch sketch;
  EXPECT_FALSE(sketch.Insert(-0.001));
  EXPECT_FALSE(sketch.Insert(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(sketch.min(), 0.0);
  EXPECT_EQ(sketch.max(), 0.0);
  EXPECT_TRUE(sketch.Insert(5.0));
  EXPECT_EQ(sketch.min(), 5.0);
  EXPECT_EQ(sketch.max(), 5.0);
  EXPECT_EQ(sketch.Quantile(0.5), 5.0);
}

TEST(QuantileSketchTest, HugeSampleKeepsExactCountAndMax) {
  QuantileSketch sketch(kRegistryAccuracy);
  EXPECT_TRUE(sketch.Insert(0.0));
  EXPECT_TRUE(sketch.Insert(1e15));
  EXPECT_EQ(sketch.count(), 2u);
  EXPECT_EQ(sketch.zero_count(), 1u);
  EXPECT_EQ(sketch.num_buckets(), 1u);
  EXPECT_EQ(sketch.min(), 0.0);
  EXPECT_EQ(sketch.max(), 1e15);
  EXPECT_LE(std::abs(sketch.Quantile(1.0) - 1e15), kRegistryAccuracy * 1e15);
}

TEST(QuantileSketchTest, MergeWithEmptyIsIdentity) {
  QuantileSketch sketch;
  QuantileSketch empty;
  sketch.Insert(1.0);
  sketch.Insert(3.5);
  const std::string bytes = sketch.Serialize();
  sketch.Merge(empty);
  EXPECT_EQ(sketch.Serialize(), bytes);
  // Merging into an empty sketch adopts the other's bounds outright.
  QuantileSketch fresh;
  fresh.Merge(sketch);
  EXPECT_EQ(fresh.Serialize(), bytes);
  EXPECT_EQ(fresh.min(), 1.0);
  EXPECT_EQ(fresh.max(), 3.5);
}

TEST(QuantileSketchTest, TinyValuesLandInZeroBucket) {
  QuantileSketch sketch(0.01);
  EXPECT_TRUE(sketch.Insert(0.0));
  EXPECT_TRUE(sketch.Insert(1e-12));
  EXPECT_TRUE(sketch.Insert(5.0));
  EXPECT_EQ(sketch.count(), 3u);
  // Rank 1 and 2 sit in the zero bucket, reported as the min envelope.
  EXPECT_EQ(sketch.Quantile(0.0), 0.0);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_EQ(sketch.Quantile(1.0), 5.0);
}

// The DDSketch contract: every quantile estimate is within the relative
// accuracy of the true (nearest-rank) sample quantile.
TEST(QuantileSketchTest, RelativeErrorBoundHolds) {
  const double kAccuracy = 0.02;
  std::mt19937_64 rng(20260808);
  std::lognormal_distribution<double> dist(0.0, 1.5);
  std::vector<double> samples;
  QuantileSketch sketch(kAccuracy);
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    samples.push_back(v);
    ASSERT_TRUE(sketch.Insert(v));
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const uint64_t target = QuantileRankTarget(samples.size(), q);
    const double exact = samples[target - 1];
    const double estimate = sketch.Quantile(q);
    EXPECT_LE(std::abs(estimate - exact), kAccuracy * exact)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

// Satellite: the merge property test. Any partition of the stream into
// up to 8 shards, merged in any order, must serialize byte-identically
// to the single-stream sketch, and the merged quantiles must keep the
// relative-error bound.
TEST(QuantileSketchTest, MergeIsPartitionAndOrderIndependent) {
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(1.0, 1.0);
  std::uniform_int_distribution<size_t> shard_count(1, 8);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t shards = shard_count(rng);
    std::uniform_int_distribution<size_t> pick(0, shards - 1);
    QuantileSketch single(0.01);
    std::vector<QuantileSketch> parts(shards, QuantileSketch(0.01));
    std::vector<double> samples;
    for (int i = 0; i < 2000; ++i) {
      const double v = dist(rng);
      samples.push_back(v);
      single.Insert(v);
      parts[pick(rng)].Insert(v);
    }
    // Merge the shards in a random order.
    std::vector<size_t> order(shards);
    for (size_t i = 0; i < shards; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    QuantileSketch merged(0.01);
    for (const size_t s : order) merged.Merge(parts[s]);

    EXPECT_EQ(merged.Serialize(), single.Serialize())
        << "trial " << trial << " with " << shards << " shards";

    std::sort(samples.begin(), samples.end());
    for (const double q : {0.5, 0.99}) {
      const double exact = samples[QuantileRankTarget(samples.size(), q) - 1];
      EXPECT_LE(std::abs(merged.Quantile(q) - exact), 0.01 * exact);
    }
  }
}

// Acceptance gate: shard the default storm scenario's served response
// times over 8 sketches and merge — byte-for-byte equal to the
// single-stream sketch over the same run.
TEST(QuantileSketchTest, StormScenarioShardedMergeMatchesSingleStream) {
  robust::StormConfig storm;
  storm.queries = 1500;  // smaller replica of the committed scenario
  const TestbedConfig config =
      robust::MakeStormTestbedConfig(storm, /*hardened=*/true);
  const RunTrace trace = Testbed::Run(config);

  QuantileSketch single(0.01);
  std::vector<QuantileSketch> shards(8, QuantileSketch(0.01));
  size_t i = 0;
  size_t served = 0;
  for (const Query& query : trace.queries) {
    if (!query.Served()) continue;
    single.Insert(query.ResponseTime());
    shards[i++ % 8].Insert(query.ResponseTime());
    ++served;
  }
  ASSERT_GT(served, 100u);
  QuantileSketch merged(0.01);
  for (const QuantileSketch& shard : shards) merged.Merge(shard);
  EXPECT_EQ(merged.Serialize(), single.Serialize());
  EXPECT_EQ(merged.count(), single.count());
  EXPECT_EQ(merged.Quantile(0.99), single.Quantile(0.99));
}

TEST(QuantileSketchTest, MergeRejectsAccuracyMismatch) {
  QuantileSketch a(0.01);
  QuantileSketch b(0.02);
  b.Insert(1.0);
  EXPECT_THROW(a.Merge(b), std::invalid_argument);
}

TEST(QuantileSketchTest, SerializeRoundTripsBitExactly) {
  QuantileSketch sketch(0.015);
  std::mt19937_64 rng(11);
  std::exponential_distribution<double> dist(0.5);
  for (int i = 0; i < 500; ++i) sketch.Insert(dist(rng));
  sketch.Insert(-3.0);  // rejected counter must round-trip too
  const std::string bytes = sketch.Serialize();
  const QuantileSketch back = QuantileSketch::Deserialize(bytes);
  EXPECT_EQ(back.Serialize(), bytes);
  EXPECT_EQ(back.count(), sketch.count());
  EXPECT_EQ(back.rejected(), sketch.rejected());
  EXPECT_EQ(back.Quantile(0.9), sketch.Quantile(0.9));
  // A deserialized sketch merges with a live one (bit-pattern accuracy).
  QuantileSketch merged(0.015);
  merged.Merge(back);
  EXPECT_EQ(merged.Serialize(), bytes);
}

TEST(QuantileSketchTest, DeserializeFailsClosedOnCorruption) {
  QuantileSketch sketch(0.01);
  for (int i = 1; i <= 64; ++i) sketch.Insert(0.25 * i);
  const std::string bytes = sketch.Serialize();
  EXPECT_THROW(QuantileSketch::Deserialize(""), persist::PersistError);
  EXPECT_THROW(QuantileSketch::Deserialize(bytes.substr(0, bytes.size() / 2)),
               persist::PersistError);
  EXPECT_THROW(QuantileSketch::Deserialize(bytes + "x"),
               persist::PersistError);
  // Single-byte flips must never produce a silently-wrong sketch: either
  // the parse throws or the reserialized bytes equal the mutated input.
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes;
    const size_t pos = rng() % mutated.size();
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << (rng() % 8)));
    try {
      const QuantileSketch back = QuantileSketch::Deserialize(mutated);
      EXPECT_EQ(back.Serialize(), mutated);
    } catch (const persist::PersistError&) {
      // fail-closed: fine
    }
  }
}

// --- shared nearest-rank quantile rule ----------------------------------

// The exported summary quotes the sketch's own quantile rule: one rule
// across attribution, stats exports and the SLO engine.
TEST(SharedQuantileTest, SummaryQuotesSketchQuantiles) {
  QuantileSketch sketch(kRegistryAccuracy);
  std::mt19937_64 rng(29);
  std::lognormal_distribution<double> dist(0.0, 2.0);
  for (int i = 0; i < 5000; ++i) sketch.Insert(dist(rng));
  const HistogramSnapshot snapshot = SummarizeSketch("test/h", sketch);
  EXPECT_EQ(snapshot.count, sketch.count());
  EXPECT_EQ(snapshot.approx_mean, sketch.ApproxMean());
  EXPECT_EQ(snapshot.p50, sketch.Quantile(0.50));
  EXPECT_EQ(snapshot.p90, sketch.Quantile(0.90));
  EXPECT_EQ(snapshot.p99, sketch.Quantile(0.99));
}

TEST(SharedQuantileTest, RankTargetIsNearestRank) {
  EXPECT_EQ(QuantileRankTarget(10, 0.0), 1u);
  EXPECT_EQ(QuantileRankTarget(10, 0.5), 5u);
  EXPECT_EQ(QuantileRankTarget(10, 1.0), 10u);
  EXPECT_EQ(QuantileRankTarget(1, 0.99), 1u);
  EXPECT_EQ(QuantileRankTarget(10, -3.0), 1u);  // clamped
  EXPECT_EQ(QuantileRankTarget(10, 7.0), 10u);  // clamped
}

// --- objectives file parser ---------------------------------------------

TEST(SloParserTest, ParsesFullGrammar) {
  const SloConfig config = ParseSloObjectives(
      "# latency SLOs\n"
      "window 10\n"
      "accuracy 0.02\n"
      "capacity 128\n"
      "burn fast 5 60 14.4\n"
      "burn slow 30 360 6\n"
      "objective p99 < 60 budget 0.05\n"
      "objective goodput_ratio > 0.95\n"
      "anomaly queue_depth alpha 0.25 z 3 warmup 4\n");
  EXPECT_EQ(config.window_seconds, 10.0);
  EXPECT_EQ(config.sketch_relative_accuracy, 0.02);
  EXPECT_EQ(config.timeline_capacity, 128u);
  ASSERT_EQ(config.objectives.size(), 2u);
  EXPECT_EQ(config.objectives[0].signal, SloSignal::kP99);
  EXPECT_EQ(config.objectives[0].op, SloOp::kLt);
  EXPECT_EQ(config.objectives[0].threshold, 60.0);
  EXPECT_EQ(config.objectives[0].budget, 0.05);
  EXPECT_EQ(config.objectives[1].signal, SloSignal::kGoodputRatio);
  EXPECT_EQ(config.objectives[1].op, SloOp::kGt);
  ASSERT_EQ(config.anomalies.size(), 1u);
  EXPECT_EQ(config.anomalies[0].signal, SloSignal::kQueueDepth);
  EXPECT_EQ(config.anomalies[0].alpha, 0.25);
  EXPECT_EQ(config.anomalies[0].warmup_windows, 4u);
}

TEST(SloParserTest, RejectsMalformedInput) {
  EXPECT_THROW(ParseSloObjectives("objective p99 <\n"), std::invalid_argument);
  EXPECT_THROW(ParseSloObjectives("objective nosuch < 1\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseSloObjectives("objective p99 ~ 1\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseSloObjectives("window -5\n"), std::invalid_argument);
  EXPECT_THROW(ParseSloObjectives("frobnicate 3\n"), std::invalid_argument);
  EXPECT_THROW(ParseSloObjectives("objective p99 < 1 budget 2\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseSloObjectives("burn fast 60 5 14.4\n"),
               std::invalid_argument);
}

// --- windowing and signals ----------------------------------------------

SloConfig SmallConfig() {
  SloConfig config;
  config.window_seconds = 1.0;
  // One-window burn horizons so alert behavior is easy to reason about.
  config.burn.fast_short_seconds = 1.0;
  config.burn.fast_long_seconds = 1.0;
  config.burn.fast_threshold = 1e9;  // effectively off unless overridden
  config.burn.slow_short_seconds = 1.0;
  config.burn.slow_long_seconds = 1.0;
  config.burn.slow_threshold = 1e9;
  return config;
}

TEST(SloPipelineTest, TumblingWindowsCloseOnAdvance) {
  SloPipeline pipeline(SmallConfig());
  pipeline.OnArrival(0.25);
  pipeline.OnResponse(0.75, 0.1, true);
  pipeline.OnArrival(1.5);  // rolls window 0 closed
  EXPECT_EQ(pipeline.windows_closed(), 1u);
  pipeline.Finish(2.0);  // closes window 1 and the partial window 2
  const auto& timeline = pipeline.timeline();
  ASSERT_GE(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].index, 0u);
  EXPECT_EQ(timeline[0].arrivals, 1u);
  EXPECT_EQ(timeline[0].responses, 1u);
  EXPECT_EQ(timeline[0].good, 1u);
  EXPECT_EQ(timeline[1].arrivals, 1u);
  EXPECT_EQ(timeline[1].responses, 0u);
}

TEST(SloPipelineTest, SignalValuesMatchDefinitions) {
  SloConfig config = SmallConfig();
  SloPipeline pipeline(config);
  pipeline.OnArrival(0.1);
  pipeline.OnArrival(0.2);
  pipeline.OnShed(0.3);
  pipeline.OnResponse(0.4, 0.5, true);
  pipeline.OnResponse(0.5, 1.5, false);
  pipeline.OnSprintEngage(0.6);
  pipeline.OnQueueDepth(0.7, 3.0);
  pipeline.OnQueueDepth(0.8, 7.0);
  pipeline.OnBudgetLevel(0.9, 12.5);
  pipeline.Finish(1.0);

  ASSERT_GE(pipeline.timeline().size(), 1u);
  const SloWindow& w = pipeline.timeline()[0];
  double value = 0.0;
  ASSERT_TRUE(w.SignalValue(SloSignal::kGoodputRatio, 1.0, &value));
  EXPECT_DOUBLE_EQ(value, 1.0 / 3.0);  // good / (good + bad + shed)
  ASSERT_TRUE(w.SignalValue(SloSignal::kShedFraction, 1.0, &value));
  EXPECT_DOUBLE_EQ(value, 1.0 / 3.0);  // shed / (arrivals + shed)
  ASSERT_TRUE(w.SignalValue(SloSignal::kQueueDepth, 1.0, &value));
  EXPECT_EQ(value, 7.0);  // last observation
  ASSERT_TRUE(w.SignalValue(SloSignal::kBudgetLevel, 1.0, &value));
  EXPECT_EQ(value, 12.5);
  ASSERT_TRUE(w.SignalValue(SloSignal::kEngageRate, 1.0, &value));
  EXPECT_EQ(value, 1.0);
  ASSERT_TRUE(w.SignalValue(SloSignal::kArrivalRate, 1.0, &value));
  EXPECT_EQ(value, 3.0);  // (arrivals + shed) / window
  ASSERT_TRUE(w.SignalValue(SloSignal::kMeanResponse, 1.0, &value));
  EXPECT_DOUBLE_EQ(value, 1.0);  // (0.5 + 1.5) / 2
}

TEST(SloPipelineTest, EmptyWindowsAreNotEvaluated) {
  SloConfig config = SmallConfig();
  SloObjective objective;
  objective.signal = SloSignal::kP99;
  objective.op = SloOp::kLt;
  objective.threshold = 1.0;
  objective.budget = 0.5;
  config.objectives.push_back(objective);
  SloPipeline pipeline(config);
  pipeline.OnResponse(0.5, 2.0, true);  // violating window 0
  pipeline.Finish(5.0);                 // windows 1..4 carry no data
  ASSERT_EQ(pipeline.objective_states().size(), 1u);
  const SloObjectiveState& state = pipeline.objective_states()[0];
  EXPECT_EQ(state.windows_evaluated, 1u);
  EXPECT_EQ(state.bad_windows, 1u);
  EXPECT_TRUE(pipeline.BurnedThrough());  // 1/1 > 0.5
}

// --- burn-rate alerts ---------------------------------------------------

TEST(SloPipelineTest, BurnRateAlertFiresAndClears) {
  SloConfig config = SmallConfig();
  config.burn.fast_threshold = 2.0;  // page when burn > 2x budget
  config.burn.slow_threshold = 2.0;
  SloObjective objective;
  objective.signal = SloSignal::kP99;
  objective.op = SloOp::kLt;
  objective.threshold = 1.0;
  objective.budget = 0.25;
  config.objectives.push_back(objective);

  MetricsRegistry metrics;
  FlightRecorder recorder;
  ObsSession session(&metrics, &recorder);
  SloPipeline pipeline(config);
  // Violating windows 0..3: burn rate 1/0.25 = 4 > 2 -> fires.
  for (int w = 0; w < 4; ++w) {
    pipeline.OnResponse(w + 0.5, 5.0, true);
  }
  // Healthy windows 4..9: burn rate falls to 0 -> clears.
  for (int w = 4; w < 10; ++w) {
    pipeline.OnResponse(w + 0.5, 0.1, true);
  }
  pipeline.Finish(10.0);

  EXPECT_EQ(pipeline.AlertsFired(), 1u);
  EXPECT_EQ(pipeline.AlertsCleared(), 1u);
  EXPECT_GT(pipeline.alert_windows(), 0u);
  EXPECT_GE(pipeline.FirstAlertSeconds(), 0.0);
  EXPECT_GT(pipeline.PagingFraction(), 0.0);
  EXPECT_LT(pipeline.PagingFraction(), 1.0);

  // The fire/clear transitions land in the flight recorder taxonomy.
  size_t fires = 0;
  size_t clears = 0;
  for (const Event& event : recorder.Events()) {
    if (event.kind == EventKind::kSloAlertFire) ++fires;
    if (event.kind == EventKind::kSloAlertClear) ++clears;
    if (event.kind == EventKind::kSloAlertFire) {
      EXPECT_EQ(event.subsystem, Subsystem::kSlo);
      EXPECT_EQ(event.severity, Severity::kError);
    }
  }
  EXPECT_EQ(fires, 1u);
  EXPECT_EQ(clears, 1u);
}

TEST(SloPipelineTest, HealthyRunNeverPages) {
  SloConfig config = SmallConfig();
  config.burn.fast_threshold = 2.0;
  config.burn.slow_threshold = 2.0;
  SloObjective objective;
  objective.signal = SloSignal::kP99;
  objective.op = SloOp::kLt;
  objective.threshold = 1.0;
  objective.budget = 0.25;
  config.objectives.push_back(objective);
  SloPipeline pipeline(config);
  for (int w = 0; w < 20; ++w) pipeline.OnResponse(w + 0.5, 0.1, true);
  pipeline.Finish(20.0);
  EXPECT_EQ(pipeline.AlertsFired(), 0u);
  EXPECT_EQ(pipeline.alert_windows(), 0u);
  EXPECT_LT(pipeline.FirstAlertSeconds(), 0.0);
  EXPECT_FALSE(pipeline.BurnedThrough());
}

// --- anomaly detection --------------------------------------------------

TEST(SloPipelineTest, EwmaAnomalyDetectorFlagsSpike) {
  SloConfig config = SmallConfig();
  SloAnomalyConfig anomaly;
  anomaly.signal = SloSignal::kQueueDepth;
  anomaly.alpha = 0.3;
  anomaly.z = 3.0;
  anomaly.warmup_windows = 4;
  config.anomalies.push_back(anomaly);

  MetricsRegistry metrics;
  FlightRecorder recorder;
  ObsSession session(&metrics, &recorder);
  SloPipeline pipeline(config);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> jitter(3.9, 4.1);
  for (int w = 0; w < 30; ++w) {
    pipeline.OnQueueDepth(w + 0.5, jitter(rng));
  }
  pipeline.OnQueueDepth(30.5, 400.0);  // the spike
  pipeline.Finish(31.0);

  EXPECT_GE(pipeline.anomaly_count(), 1u);
  bool saw_anomaly_event = false;
  for (const Event& event : recorder.Events()) {
    if (event.kind == EventKind::kSloAnomaly) {
      saw_anomaly_event = true;
      EXPECT_EQ(event.subsystem, Subsystem::kSlo);
    }
  }
  EXPECT_TRUE(saw_anomaly_event);
}

TEST(SloPipelineTest, SteadySignalRaisesNoAnomaly) {
  SloConfig config = SmallConfig();
  SloAnomalyConfig anomaly;
  anomaly.signal = SloSignal::kQueueDepth;
  anomaly.warmup_windows = 4;
  config.anomalies.push_back(anomaly);
  SloPipeline pipeline(config);
  // A constant signal has zero EWMA variance; the detector must treat
  // that as "nothing to score", not divide by zero or page.
  for (int w = 0; w < 50; ++w) pipeline.OnQueueDepth(w + 0.5, 4.0);
  pipeline.Finish(50.0);
  EXPECT_EQ(pipeline.anomaly_count(), 0u);
}

// --- exports ------------------------------------------------------------

void FeedDeterministic(SloPipeline& pipeline, int windows) {
  std::mt19937_64 rng(99);
  std::exponential_distribution<double> service(2.0);
  for (int w = 0; w < windows; ++w) {
    const double base = w * 1.0;
    pipeline.OnArrival(base + 0.1);
    pipeline.OnResponse(base + 0.4, service(rng), true);
    pipeline.OnQueueDepth(base + 0.5, (double)(w % 5));
    pipeline.OnBudgetLevel(base + 0.6, 10.0 - 0.1 * w);
    if (w % 7 == 0) pipeline.OnShed(base + 0.7);
    if (w % 3 == 0) pipeline.OnSprintEngage(base + 0.8);
  }
  pipeline.Finish(windows * 1.0);
}

TEST(SloPipelineTest, ExportsAreByteStableAcrossIdenticalFeeds) {
  SloConfig config = SmallConfig();
  SloObjective objective;
  objective.signal = SloSignal::kGoodputRatio;
  objective.op = SloOp::kGt;
  objective.threshold = 0.5;
  objective.budget = 0.5;
  config.objectives.push_back(objective);

  SloPipeline a(config);
  SloPipeline b(config);
  FeedDeterministic(a, 40);
  FeedDeterministic(b, 40);
  EXPECT_EQ(a.FormatTimeline(), b.FormatTimeline());
  EXPECT_EQ(a.FormatTimelineJsonl(), b.FormatTimelineJsonl());
  EXPECT_EQ(a.FormatSummary(), b.FormatSummary());
  EXPECT_EQ(a.FormatWatch(), b.FormatWatch());
  EXPECT_NE(a.FormatTimeline().find("# msprint slo timeline v1"),
            std::string::npos);
  EXPECT_NE(a.FormatSummary().find("burned_through"), std::string::npos);
}

TEST(SloPipelineTest, RingDropsOldWindowsButCountsThem) {
  SloConfig config = SmallConfig();
  config.timeline_capacity = 8;
  SloPipeline pipeline(config);
  FeedDeterministic(pipeline, 100);
  EXPECT_GT(pipeline.windows_dropped(), 0u);
  EXPECT_EQ(pipeline.windows_closed(),
            pipeline.windows_dropped() + pipeline.timeline().size());
}

// Multi-horizon burn config with three objectives over windows that are
// sometimes empty (not evaluated), for the burn-count tests below.
SloConfig BurnConfig(size_t timeline_capacity) {
  SloConfig config;
  config.window_seconds = 1.0;
  config.timeline_capacity = timeline_capacity;
  config.burn.fast_short_seconds = 2.0;
  config.burn.fast_long_seconds = 4.5;  // ceil: 5 windows
  config.burn.fast_threshold = 2.0;
  config.burn.slow_short_seconds = 3.0;
  config.burn.slow_long_seconds = 9.0;
  config.burn.slow_threshold = 1.5;
  config.objectives = {{SloSignal::kP99, SloOp::kLt, 1.0, 0.25},
                       {SloSignal::kGoodputRatio, SloOp::kGt, 0.9, 0.3},
                       {SloSignal::kQueueDepth, SloOp::kLt, 2.0, 0.5}};
  return config;
}

void FeedBursty(SloPipeline& pipeline, int from, int to) {
  for (int w = from; w < to; ++w) {
    if (w % 11 == 5) continue;  // an empty window: nothing evaluated
    const double base = w * 1.0;
    const bool burst = (w / 13) % 2 == 1;
    pipeline.OnArrival(base + 0.1);
    pipeline.OnResponse(base + 0.4, burst ? 2.0 + 0.1 * (w % 3) : 0.5,
                        w % 4 != 0);
    if (w % 3 != 0) pipeline.OnQueueDepth(base + 0.5, (double)(w % 4));
    if (burst && w % 2 == 0) pipeline.OnShed(base + 0.7);
  }
}

// The running burn counts equal the definition: rescanning the newest
// ceil(horizon / window) closed windows' masks and replaying the alert
// state machine reproduces every window's alert bits and every fire.
TEST(SloPipelineTest, BurnCountsMatchARescanOfTheRing) {
  const SloConfig config = BurnConfig(4096);
  SloPipeline pipeline(config);
  FeedBursty(pipeline, 0, 200);
  pipeline.Finish(200.0);
  const std::deque<SloWindow>& ring = pipeline.timeline();
  ASSERT_EQ(pipeline.windows_dropped(), 0u);

  auto burn = [&](size_t last, size_t i, double horizon) {
    const size_t h = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(horizon / config.window_seconds)));
    uint64_t evaluated = 0;
    uint64_t bad = 0;
    for (size_t k = last + 1 > h ? last + 1 - h : 0; k <= last; ++k) {
      if (ring[k].evaluated_mask & (1u << i)) {
        ++evaluated;
        bad += (ring[k].violation_mask >> i) & 1u;
      }
    }
    return evaluated == 0 ? 0.0
                          : static_cast<double>(bad) / evaluated /
                                config.objectives[i].budget;
  };
  const SloBurnConfig& b = config.burn;
  uint64_t fires = 0;
  uint64_t alert_bits = 0;
  for (size_t i = 0; i < config.objectives.size(); ++i) {
    bool active = false;
    for (size_t k = 0; k < ring.size(); ++k) {
      const double fast = std::min(burn(k, i, b.fast_short_seconds),
                                   burn(k, i, b.fast_long_seconds));
      const double slow = std::min(burn(k, i, b.slow_short_seconds),
                                   burn(k, i, b.slow_long_seconds));
      const bool paging = fast > b.fast_threshold || slow > b.slow_threshold;
      fires += paging && !active;
      active = paging;
      EXPECT_EQ((ring[k].alert_mask >> i) & 1u, active ? 1u : 0u)
          << "objective " << i << " window " << k;
      alert_bits += active;
    }
  }
  EXPECT_EQ(pipeline.AlertsFired(), fires);
  EXPECT_GT(fires, 3u);  // the feed must exercise the state machine
  EXPECT_GT(alert_bits, 0u);
}

// RestoreState rebuilds the burn counts from the restored ring: a run cut
// at any window, saved and resumed reproduces the uninterrupted exports,
// including after the ring has started dropping windows.
TEST(SloStateTest, ResumeAtAnyWindowRebuildsBurnCounts) {
  const SloConfig config = BurnConfig(4);  // the ring keeps 10 windows
  SloPipeline uninterrupted(config);
  FeedBursty(uninterrupted, 0, 80);
  uninterrupted.Finish(80.0);
  ASSERT_GT(uninterrupted.windows_dropped(), 0u);
  ASSERT_GT(uninterrupted.AlertsFired(), 0u);
  for (int cut = 1; cut < 80; cut += 3) {
    SloPipeline first(config);
    FeedBursty(first, 0, cut);
    SloPipeline resumed = SloPipeline::RestoreState(first.SaveState());
    FeedBursty(resumed, cut, 80);
    resumed.Finish(80.0);
    EXPECT_EQ(resumed.FormatTimeline(), uninterrupted.FormatTimeline())
        << "cut at window " << cut;
    EXPECT_EQ(resumed.FormatSummary(), uninterrupted.FormatSummary())
        << "cut at window " << cut;
  }
}

TEST(SloPipelineTest, FinishPublishesMetrics) {
  MetricsRegistry metrics;
  ObsSession session(&metrics, nullptr);
  SloPipeline pipeline(SmallConfig());
  FeedDeterministic(pipeline, 10);
  const std::string text = metrics.Snapshot().ToText();
  EXPECT_NE(text.find("slo/windows"), std::string::npos);
}

// --- bit-exact state round trip -----------------------------------------

TEST(SloStateTest, SaveRestoreRoundTripsBitExactly) {
  SloConfig config = SmallConfig();
  SloObjective objective;
  objective.signal = SloSignal::kP99;
  objective.op = SloOp::kLt;
  objective.threshold = 0.8;
  objective.budget = 0.3;
  config.objectives.push_back(objective);
  SloAnomalyConfig anomaly;
  anomaly.signal = SloSignal::kQueueDepth;
  config.anomalies.push_back(anomaly);

  SloPipeline pipeline(config);
  std::mt19937_64 rng(123);
  std::exponential_distribution<double> service(1.5);
  for (int w = 0; w < 25; ++w) {
    pipeline.OnArrival(w + 0.2);
    pipeline.OnResponse(w + 0.6, service(rng), w % 4 != 0);
    pipeline.OnQueueDepth(w + 0.7, (double)(w % 3));
  }
  // Mid-window state (not finished): the checkpoint case.
  const std::string bytes = pipeline.SaveState();
  const SloPipeline restored = SloPipeline::RestoreState(bytes);
  EXPECT_EQ(restored.SaveState(), bytes);
  EXPECT_EQ(restored.FormatTimeline(), pipeline.FormatTimeline());
  EXPECT_EQ(restored.windows_closed(), pipeline.windows_closed());
}

// The headline persistence property: interrupt mid-window, restore, feed
// the remainder — the timeline and summary are byte-identical to a run
// that was never interrupted.
TEST(SloStateTest, ResumedPipelineReproducesTimelineByteForByte) {
  SloConfig config = SmallConfig();
  config.burn.fast_threshold = 2.0;
  config.burn.slow_threshold = 2.0;
  SloObjective objective;
  objective.signal = SloSignal::kP99;
  objective.op = SloOp::kLt;
  objective.threshold = 0.5;
  objective.budget = 0.25;
  config.objectives.push_back(objective);

  // Record one deterministic event stream.
  struct Ev {
    double t;
    double rt;
  };
  std::vector<Ev> events;
  std::mt19937_64 rng(321);
  std::exponential_distribution<double> service(1.0);
  for (int w = 0; w < 60; ++w) {
    events.push_back({w + 0.3, service(rng)});
    events.push_back({w + 0.7, service(rng)});
  }

  SloPipeline uninterrupted(config);
  for (const Ev& e : events) uninterrupted.OnResponse(e.t, e.rt, true);
  uninterrupted.Finish(60.0);

  SloPipeline first_half(config);
  const size_t cut = events.size() / 2 + 1;  // mid-window
  for (size_t i = 0; i < cut; ++i) {
    first_half.OnResponse(events[i].t, events[i].rt, true);
  }
  SloPipeline resumed = SloPipeline::RestoreState(first_half.SaveState());
  for (size_t i = cut; i < events.size(); ++i) {
    resumed.OnResponse(events[i].t, events[i].rt, true);
  }
  resumed.Finish(60.0);

  EXPECT_EQ(resumed.FormatTimeline(), uninterrupted.FormatTimeline());
  EXPECT_EQ(resumed.FormatTimelineJsonl(),
            uninterrupted.FormatTimelineJsonl());
  EXPECT_EQ(resumed.FormatSummary(), uninterrupted.FormatSummary());
  EXPECT_EQ(resumed.AlertsFired(), uninterrupted.AlertsFired());
}

TEST(SloStateTest, RestoreFailsClosedOnCorruption) {
  SloPipeline pipeline(SmallConfig());
  FeedDeterministic(pipeline, 5);
  const std::string bytes = pipeline.SaveState();
  EXPECT_THROW(SloPipeline::RestoreState(""), persist::PersistError);
  EXPECT_THROW(SloPipeline::RestoreState(bytes.substr(0, bytes.size() - 3)),
               persist::PersistError);
  EXPECT_THROW(SloPipeline::RestoreState(bytes + "zz"),
               persist::PersistError);
}

// --- pinned wire bytes --------------------------------------------------

// Sketch and pipeline state are persisted inside checkpoints, so their
// bytes are an on-disk format. These fingerprints pin that format: a codec
// change that moves a single byte of either payload fails here.
QuantileSketch PinnedSketch() {
  QuantileSketch sketch(0.01);
  for (int i = 1; i <= 64; ++i) sketch.Insert(0.25 * i);
  return sketch;
}

// persist_test's checkpoint fixture: one p99 objective and one queue-depth
// anomaly detector over 30 s windows.
SloPipeline PinnedPipeline() {
  SloConfig config;
  config.window_seconds = 30.0;
  SloObjective objective;
  objective.signal = SloSignal::kP99;
  objective.op = SloOp::kLt;
  objective.threshold = 60.0;
  objective.budget = 0.2;
  config.objectives.push_back(objective);
  SloAnomalyConfig anomaly;
  anomaly.signal = SloSignal::kQueueDepth;
  anomaly.warmup_windows = 3;
  config.anomalies.push_back(anomaly);

  SloPipeline pipeline(config);
  for (int i = 0; i < 70; ++i) {
    const double t = 7.0 * i;
    pipeline.OnArrival(t);
    pipeline.OnResponse(t + 3.0, 40.0 + (i * 37) % 60, i % 5 != 0);
    pipeline.OnQueueDepth(t + 4.0, 1.0 + i % 5);
  }
  return pipeline;
}

TEST(WireFormatTest, SketchBytesArePinned) {
  EXPECT_EQ(persist::Fingerprint64(PinnedSketch().Serialize()),
            0x1649d5cdec5554f2ULL);
}

TEST(WireFormatTest, SloStateBytesArePinned) {
  EXPECT_EQ(persist::Fingerprint64(PinnedPipeline().SaveState()),
            0xa326647645f012b6ULL);
}

// Version 2 stores the run-wide response sketch in the sketch's own wire
// form; a version-1 payload (the earlier hand-rolled bucket list) is
// refused up front rather than misread.
// Every window sketch folds into the run-wide one, so a nested sketch
// whose accuracy differs from the config's is refused at restore rather
// than throwing outside the persist taxonomy at a later merge.
TEST(SloStateTest, RestoreRefusesSketchAccuracyMismatch) {
  const std::string bytes = PinnedPipeline().SaveState();
  persist::Writer configured, other;
  configured.PutF64(0.01);
  other.PutF64(0.02);
  // The config's accuracy comes first; the next copy heads the run-wide
  // sketch, and the one after that the open window's.
  const size_t config_at = bytes.find(configured.bytes());
  const size_t run_at = bytes.find(configured.bytes(), config_at + 8);
  const size_t open_at = bytes.find(configured.bytes(), run_at + 8);
  ASSERT_NE(open_at, std::string::npos);
  for (const size_t at : {run_at, open_at}) {
    std::string mutated = bytes;
    mutated.replace(at, 8, other.bytes());
    EXPECT_THROW(SloPipeline::RestoreState(mutated), persist::PersistError)
        << "sketch at byte " << at;
  }
}

TEST(SloStateTest, PreviousVersionPayloadFailsClosed) {
  std::string bytes = PinnedPipeline().SaveState();
  ASSERT_EQ(bytes[4], 2);  // u32 magic, then the u8 version
  bytes[4] = 1;
  try {
    SloPipeline::RestoreState(bytes);
    FAIL() << "version-1 payload restored";
  } catch (const persist::PersistError& error) {
    EXPECT_EQ(error.code(), persist::ErrorCode::kFormat);
  }
}

// The checkpoint's section CRC catches storage corruption, but the payload
// must not trust its own content either: flip every byte once (the bit
// drawn from a seeded stream) under no checksum at all. Each restore
// either throws PersistError or yields a pipeline that re-serializes to
// exactly the mutated bytes — never a silently different state, and never
// an exception outside the persist taxonomy.
TEST(SloStateTest, RestoreFailsClosedOnByteFlips) {
  const std::string bytes = PinnedPipeline().SaveState();
  std::mt19937_64 rng(31);
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << (rng() % 8)));
    try {
      EXPECT_EQ(SloPipeline::RestoreState(mutated).SaveState(), mutated)
          << "flip at byte " << pos;
    } catch (const persist::PersistError&) {
      // fail-closed: fine
    }
  }
}

// --- testbed integration ------------------------------------------------

// Same seed, same pipeline feed: two observed testbed runs produce
// byte-identical timelines, and the windowed response count covers at
// least the trace's post-warmup served attempts (the pipeline also sees
// warmup traffic; the <2% overhead claim is the bench job's gate).
TEST(SloIntegrationTest, TestbedFeedIsDeterministicAndComplete) {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.num_queries = 400;
  config.warmup_queries = 40;
  config.seed = 9;

  SloConfig slo_config;
  slo_config.window_seconds = 200.0;

  std::string first;
  size_t responses = 0;
  for (int run = 0; run < 2; ++run) {
    SloPipeline pipeline(slo_config);
    config.slo_sink = &pipeline;
    const RunTrace trace = Testbed::Run(config);
    uint64_t windowed = 0;
    for (const SloWindow& w : pipeline.timeline()) windowed += w.responses;
    size_t served = 0;
    for (const Query& query : trace.queries) {
      if (query.Served()) ++served;
    }
    EXPECT_GE(windowed, served);
    responses = served;
    if (run == 0) {
      first = pipeline.FormatTimeline();
    } else {
      EXPECT_EQ(pipeline.FormatTimeline(), first);
    }
  }
  EXPECT_GT(responses, 100u);
}

// The simulator feeds only the pipeline its config names: a null-sink run
// leaves every pipeline untouched (pool workers replaying simulations
// never race a serial pipeline), and a set sink gets a non-empty,
// byte-stable timeline at sim timestamps covering every response.
TEST(SloIntegrationTest, SimFeedsOnlyItsSinkDeterministically) {
  const ExponentialDistribution service(2.0);
  SimConfig config;
  config.service = &service;
  config.arrival_rate_per_second = 0.2;
  config.timeout_seconds = 30.0;
  config.num_queries = 300;
  config.warmup_queries = 0;
  config.seed = 11;

  SloConfig slo_config;
  slo_config.window_seconds = 100.0;

  std::string first;
  for (int run = 0; run < 2; ++run) {
    SloPipeline pipeline(slo_config);
    config.slo_sink = &pipeline;
    const SimResult result = SimulateQueue(config);
    uint64_t windowed = 0;
    for (const SloWindow& w : pipeline.timeline()) windowed += w.responses;
    EXPECT_EQ(windowed, result.response_times.size());
    const std::string timeline = pipeline.FormatTimeline();
    if (run == 0) {
      first = timeline;
      EXPECT_FALSE(pipeline.timeline().empty());
    } else {
      EXPECT_EQ(timeline, first);
    }

    SimConfig unsunk = config;
    unsunk.slo_sink = nullptr;
    SimulateQueue(unsunk);
    EXPECT_EQ(pipeline.FormatTimeline(), timeline)
        << "a null-sink run fed the pipeline";
  }
}

}  // namespace
}  // namespace obs
}  // namespace msprint
