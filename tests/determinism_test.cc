// Determinism guarantees of the parallel execution layer: every parallel
// stage must produce bit-identical results for any pool size (the
// "same seed => same output" invariant the multi-chain explorer, parallel
// forest and batched prediction are built on), and the hardened
// ThreadPool must propagate task exceptions and compose nested ParallelFor
// calls without deadlocking.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/models.h"
#include "src/explore/explorer.h"
#include "src/fault/fault.h"
#include "src/ml/random_forest.h"
#include "src/obs/attrib.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/recorder.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/online/advisor.h"
#include "src/persist/persist.h"
#include "src/robust/storm.h"
#include "src/sim/queue_simulator.h"
#include "src/testbed/testbed.h"

namespace msprint {
namespace {

std::vector<size_t> PoolSizesUnderTest() {
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  return {1, 2, hardware};
}

// ----------------------------------------------------------------- forest

Dataset NoisyStepData(int rows, uint64_t seed) {
  Dataset data({"x0", "anchor"});
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    const double x0 = rng.NextDouble() * 10.0;
    const double anchor = rng.NextDouble() * 4.0;
    const double y =
        (x0 < 5.0 ? 10.0 : 25.0) + 2.0 * anchor + rng.NextGaussian();
    data.Add({x0, anchor}, y);
  }
  return data;
}

// Every tree's structure and leaf payload as exact bits: equal bytes mean
// every tree votes identically on every input.
std::string SerializedForest(const RandomForest& forest) {
  persist::Writer w;
  forest.Serialize(w);
  return w.Take();
}

TEST(DeterminismTest, ForestIdenticalForAnyPoolSize) {
  const Dataset train = NoisyStepData(400, 21);
  RandomForestConfig config;
  config.num_trees = 16;
  config.anchor_feature = 1;
  config.seed = 77;

  ThreadPool serial(1);
  const RandomForest reference = RandomForest::Fit(train, config, &serial);
  for (size_t pool_size : PoolSizesUnderTest()) {
    ThreadPool pool(pool_size);
    const RandomForest forest = RandomForest::Fit(train, config, &pool);
    EXPECT_EQ(SerializedForest(forest), SerializedForest(reference))
        << "forest diverged at pool size " << pool_size;
  }
}

TEST(DeterminismTest, PredictBatchMatchesSerialPredict) {
  const Dataset train = NoisyStepData(300, 5);
  RandomForestConfig config;
  config.anchor_feature = 1;
  const RandomForest forest = RandomForest::Fit(train, config);

  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 64; ++i) {
    rows.push_back({0.15 * i, 0.05 * i});
  }
  ThreadPool pool(4);
  const std::vector<double> batched = forest.PredictBatch(rows, &pool);
  ASSERT_EQ(batched.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batched[i], forest.Predict(rows[i]));
  }
}

// --------------------------------------------------------------- explorer

class ConvexModel final : public PerformanceModel {
 public:
  explicit ConvexModel(double best_timeout) : best_(best_timeout) {}
  std::string name() const override { return "Convex"; }
  double PredictResponseTime(const WorkloadProfile&,
                             const ModelInput& input) const override {
    const double d = input.timeout_seconds - best_;
    return 100.0 + 0.01 * d * d;
  }

 private:
  double best_;
};

WorkloadProfile DummyProfile() {
  WorkloadProfile profile;
  profile.service_rate_per_second = 1.0 / 60.0;
  profile.marginal_rate_per_second = 1.4 / 60.0;
  Rng rng(5);
  const LognormalDistribution jitter(60.0, 0.2);
  for (int i = 0; i < 200; ++i) {
    profile.service_time_samples.push_back(jitter.Sample(rng));
  }
  return profile;
}

bool SameExploreResult(const ExploreResult& a, const ExploreResult& b) {
  if (a.best_timeout_seconds != b.best_timeout_seconds ||
      a.best_response_time != b.best_response_time ||
      a.trajectory.size() != b.trajectory.size()) {
    return false;
  }
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    if (a.trajectory[i].timeout_seconds != b.trajectory[i].timeout_seconds ||
        a.trajectory[i].predicted_response_time !=
            b.trajectory[i].predicted_response_time ||
        a.trajectory[i].accepted != b.trajectory[i].accepted) {
      return false;
    }
  }
  return true;
}

TEST(DeterminismTest, MultiChainExploreIdenticalForAnyPoolSize) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();
  ExploreConfig config;
  config.max_iterations = 200;
  config.num_chains = 4;

  ThreadPool serial(1);
  const ExploreResult reference =
      ExploreTimeout(model, profile, ModelInput{}, config, &serial);
  // 4 chains x 50 iterations.
  EXPECT_EQ(reference.trajectory.size(), 200u);
  for (size_t pool_size : PoolSizesUnderTest()) {
    ThreadPool pool(pool_size);
    const ExploreResult result =
        ExploreTimeout(model, profile, ModelInput{}, config, &pool);
    EXPECT_TRUE(SameExploreResult(reference, result))
        << "explore diverged at pool size " << pool_size;
  }
}

TEST(DeterminismTest, SingleChainUnchangedByChainMachinery) {
  // num_chains=1 must follow the exact single-chain trajectory regardless
  // of the pool handed in: the serial seed behaviour is the contract.
  const ConvexModel model(90.0);
  const WorkloadProfile profile = DummyProfile();
  ExploreConfig config;
  config.max_iterations = 150;

  ThreadPool serial(1);
  const ExploreResult reference =
      ExploreTimeout(model, profile, ModelInput{}, config, &serial);
  ThreadPool pool(4);
  const ExploreResult result =
      ExploreTimeout(model, profile, ModelInput{}, config, &pool);
  EXPECT_TRUE(SameExploreResult(reference, result));
}

TEST(DeterminismTest, MultiChainFindsConvexMinimum) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();
  ExploreConfig config;
  config.max_iterations = 400;
  config.num_chains = 4;
  const ExploreResult result =
      ExploreTimeout(model, profile, ModelInput{}, config);
  EXPECT_NEAR(result.best_timeout_seconds, 140.0, 10.0);
  EXPECT_NEAR(result.best_response_time, 100.0, 1.0);
}

// -------------------------------------------------------- fault injection

TEST(DeterminismTest, FaultStormReplaysByteIdentically) {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.timeout_seconds = 40.0;
  config.utilization = 0.6;
  config.num_queries = 1000;
  config.warmup_queries = 100;
  config.seed = 77;
  config.faults.toggle_failure_probability = 0.2;
  config.faults.breaker_trips_per_hour = 4.0;
  config.faults.outlier_probability = 0.05;
  config.faults.flash_crowds_per_hour = 1.0;

  // The testbed is a serial discrete-event loop and the fault plan is a
  // pure function of (config, seed), so two runs — under any
  // MSPRINT_THREADS setting — must agree byte for byte.
  const RunTrace a = Testbed::Run(config);
  const RunTrace b = Testbed::Run(config);
  ASSERT_FALSE(a.fault_trace.empty());
  EXPECT_EQ(FormatFaultTrace(a.fault_trace), FormatFaultTrace(b.fault_trace));
  EXPECT_EQ(a.mean_response_time, b.mean_response_time);
  EXPECT_EQ(a.total_sprint_seconds, b.total_sprint_seconds);
}

TEST(DeterminismTest, StormReportByteIdenticalForAnyPoolSize) {
  // The A/B overload bench is the newest export surface; like every
  // other artifact it must render byte-identically no matter what
  // MSPRINT_THREADS says — both arms are serial event loops and the
  // retry jitter is a pure function of (seed, request, attempt).
  std::string first;
  for (const size_t pool_size : {size_t{1}, size_t{4}}) {
    ThreadPool pool(pool_size);
    const robust::StormReport report = robust::RunStormAB(robust::StormConfig{});
    const std::string text = robust::FormatStormReport(report);
    if (first.empty()) {
      first = text;
    } else {
      EXPECT_EQ(text, first);
    }
  }
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.find("goodput_ratio"), std::string::npos);
}

// ----------------------------------------------------------------- advisor

TEST(DeterminismTest, AdvisorRecommendationsIdenticalForAnyPoolSize) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();

  // Drives one advisor through a load shift and a watchdog-forced ladder
  // descent (observations 4x the prediction), collecting every published
  // recommendation. Multi-chain re-planning runs on the given pool; the
  // stream must be bit-identical for any pool size.
  auto run = [&](ThreadPool* pool) {
    AdvisorConfig config;
    config.rate_window_seconds = 400.0;
    config.explore.max_iterations = 160;
    config.explore.num_chains = 4;
    config.explore.seed = 5;
    config.pool = pool;
    config.fallback_sim = {600, 60, 1, 97};
    config.health_window_count = 12;
    config.health_min_observations = 6;
    OnlineAdvisor advisor(model, profile, config);
    std::vector<Recommendation> recommendations;
    double t = 0.0;
    for (int i = 0; i < 120; ++i) {
      t += i < 60 ? 20.0 : 5.0;  // load shift halfway through
      advisor.OnArrival(t);
      const auto rec = advisor.Recommend(t);
      if (rec.has_value()) {
        recommendations.push_back(*rec);
        advisor.OnObservedResponseTime(
            t, 4.0 * rec->predicted_response_time);
      }
    }
    return recommendations;
  };

  ThreadPool serial(1);
  const std::vector<Recommendation> reference = run(&serial);
  ASSERT_FALSE(reference.empty());
  for (size_t pool_size : PoolSizesUnderTest()) {
    ThreadPool pool(pool_size);
    const std::vector<Recommendation> result = run(&pool);
    ASSERT_EQ(result.size(), reference.size())
        << "advisor diverged at pool size " << pool_size;
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(result[i].timeout_seconds, reference[i].timeout_seconds);
      EXPECT_EQ(result[i].predicted_response_time,
                reference[i].predicted_response_time);
      EXPECT_EQ(result[i].revision, reference[i].revision);
      EXPECT_EQ(result[i].rung, reference[i].rung);
    }
  }
}

// ------------------------------------------------------- observability
//
// The PR-4 invariant: telemetry inherits determinism. A seeded drive with
// an attached MetricsRegistry + FlightRecorder must export byte-identical
// snapshots and event streams for any pool size — stable counters are
// order-independent sums and recorder events only come from serial paths.

TEST(DeterminismTest, ObsExportsByteIdenticalForAnyPoolSize) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();

  // The advisor drive from AdvisorRecommendationsIdenticalForAnyPoolSize,
  // now with full observability attached: multi-chain exploration fans out
  // on the pool while counters accumulate from racing workers.
  auto run = [&](ThreadPool* pool) {
    obs::MetricsRegistry metrics;
    obs::FlightRecorder recorder;
    obs::ObsSession session(&metrics, &recorder);

    AdvisorConfig config;
    config.rate_window_seconds = 400.0;
    config.explore.max_iterations = 160;
    config.explore.num_chains = 4;
    config.explore.seed = 5;
    config.pool = pool;
    config.fallback_sim = {600, 60, 1, 97};
    config.health_window_count = 12;
    config.health_min_observations = 6;
    OnlineAdvisor advisor(model, profile, config);
    double t = 0.0;
    for (int i = 0; i < 120; ++i) {
      t += i < 60 ? 20.0 : 5.0;
      advisor.OnArrival(t);
      const auto rec = advisor.Recommend(t);
      if (rec.has_value()) {
        advisor.OnObservedResponseTime(t, 4.0 * rec->predicted_response_time);
      }
    }

    struct Exports {
      std::string text;
      std::string json;
      std::string jsonl;
      std::string chrome;
    };
    const obs::MetricsSnapshot snapshot = metrics.Snapshot();
    const std::vector<obs::Event> events = recorder.Events();
    return Exports{snapshot.ToText(), snapshot.ToJson(),
                   obs::EventsToJsonl(events),
                   obs::EventsToChromeTrace(events)};
  };

  ThreadPool serial(1);
  const auto reference = run(&serial);
  ASSERT_NE(reference.text.find("counter explore/"), std::string::npos);
  ASSERT_NE(reference.jsonl.find("replan"), std::string::npos);
  for (size_t pool_size : PoolSizesUnderTest()) {
    ThreadPool pool(pool_size);
    const auto result = run(&pool);
    EXPECT_EQ(result.text, reference.text)
        << "metrics text diverged at pool size " << pool_size;
    EXPECT_EQ(result.json, reference.json)
        << "metrics json diverged at pool size " << pool_size;
    EXPECT_EQ(result.jsonl, reference.jsonl)
        << "event jsonl diverged at pool size " << pool_size;
    EXPECT_EQ(result.chrome, reference.chrome)
        << "chrome trace diverged at pool size " << pool_size;
  }
}

TEST(DeterminismTest, SpanAttributionByteIdenticalForAnyPoolSize) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();

  // The explain pipeline: drive an advisor (multi-chain exploration fans
  // out on the pool), simulate under its recommendation with span
  // recording opted in, and render the attribution report. Spans come only
  // from the serial simulator path with sim-time stamps, so the full
  // report — histograms, critical path, top-K span trees — must be
  // byte-identical for any pool size.
  auto run = [&](ThreadPool* pool) {
    AdvisorConfig config;
    config.rate_window_seconds = 400.0;
    config.explore.max_iterations = 160;
    config.explore.num_chains = 4;
    config.explore.seed = 5;
    config.pool = pool;
    config.fallback_sim = {600, 60, 1, 97};
    OnlineAdvisor advisor(model, profile, config);
    double t = 0.0;
    for (int i = 0; i < 40; ++i) {
      t += 20.0;
      advisor.OnArrival(t);
      advisor.Recommend(t);
    }
    const auto rec = advisor.Recommend(t);

    obs::SpanCollector collector;
    const EmpiricalDistribution service(profile.service_time_samples);
    SimConfig sim;
    sim.arrival_rate_per_second = 0.01;
    sim.service = &service;
    sim.sprint_speedup = 1.4;
    sim.timeout_seconds = rec.has_value() ? rec->timeout_seconds : 60.0;
    sim.num_queries = 800;
    sim.warmup_queries = 80;
    sim.seed = 9;
    sim.span_sink = &collector;
    SimulateQueue(sim);
    return obs::FormatAttribution(
        obs::Attribute(collector.TakeSpans(), obs::AttributionOptions{}));
  };

  ThreadPool serial(1);
  const std::string reference = run(&serial);
  ASSERT_NE(reference.find("counter span/queries"), std::string::npos);
  ASSERT_NE(reference.find("counter span/identity-violations 0"),
            std::string::npos);
  for (size_t pool_size : PoolSizesUnderTest()) {
    ThreadPool pool(pool_size);
    EXPECT_EQ(run(&pool), reference)
        << "span attribution diverged at pool size " << pool_size;
  }
}

TEST(DeterminismTest, FaultStormSpanExportsByteIdentical) {
  // Two identical fault-storm testbed runs with span recording attached:
  // the attribution report and the nested-span chrome trace must agree
  // byte for byte, and every recorded query must satisfy the additive
  // identity exactly.
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.timeout_seconds = 40.0;
  config.utilization = 0.6;
  config.num_queries = 1000;
  config.warmup_queries = 100;
  config.seed = 77;
  config.faults.toggle_failure_probability = 0.2;
  config.faults.breaker_trips_per_hour = 4.0;
  config.faults.outlier_probability = 0.05;
  config.faults.flash_crowds_per_hour = 1.0;

  auto run = [&] {
    obs::SpanCollector collector;
    TestbedConfig sunk = config;
    sunk.span_sink = &collector;
    Testbed::Run(sunk);
    const std::vector<obs::QuerySpan> spans = collector.TakeSpans();
    size_t violations = 0;
    for (const obs::QuerySpan& span : spans) {
      if (!span.IdentityHolds()) ++violations;
    }
    EXPECT_EQ(violations, 0u);
    return std::make_pair(
        obs::FormatAttribution(
            obs::Attribute(spans, obs::AttributionOptions{})),
        obs::SpansToChromeTrace(spans));
  };
  const auto a = run();
  const auto b = run();
  ASSERT_NE(a.first.find("counter span/queries 900"), std::string::npos);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(DeterminismTest, FaultStormObsSnapshotByteIdentical) {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.timeout_seconds = 40.0;
  config.utilization = 0.6;
  config.num_queries = 1000;
  config.warmup_queries = 100;
  config.seed = 77;
  config.faults.toggle_failure_probability = 0.2;
  config.faults.breaker_trips_per_hour = 4.0;
  config.faults.outlier_probability = 0.05;
  config.faults.flash_crowds_per_hour = 1.0;

  auto run = [&] {
    obs::MetricsRegistry metrics;
    obs::FlightRecorder recorder;
    obs::ObsSession session(&metrics, &recorder);
    Testbed::Run(config);
    return std::make_pair(metrics.Snapshot().ToText(),
                          recorder.FormatTail());
  };
  const auto a = run();
  const auto b = run();
  ASSERT_NE(a.first.find("counter fault/breaker_trips"), std::string::npos);
  ASSERT_NE(a.second.find("breaker-trip"), std::string::npos);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ------------------------------------------------------- persistence
//
// Checkpoint/restore rides on the same invariant as the pool-size tests:
// restored artifacts must be bit-identical, so a warm-restarted run is
// indistinguishable from one that never stopped.

WorkloadProfile CalibratedProfile() {
  WorkloadProfile profile = DummyProfile();
  for (int i = 0; i < 24; ++i) {
    ProfileRow row;
    row.utilization = 0.3 + 0.02 * i;
    row.arrival_kind = DistributionKind::kExponential;
    row.timeout_seconds = 40.0 + 10.0 * i;
    row.refill_seconds = 3600.0;
    row.budget_fraction = 0.2;
    row.observed_mean_response_time = 120.0 + 2.0 * i;
    row.observed_median_response_time = 100.0 + 2.0 * i;
    row.fraction_sprinted = 0.4;
    row.fraction_timed_out = 0.2;
    row.run_virtual_seconds = 50000.0;
    row.effective_speedup = 1.1 + 0.01 * i;
    profile.rows.push_back(row);
  }
  return profile;
}

TEST(DeterminismTest, SerializedForestPredictsByteIdentically) {
  const Dataset train = NoisyStepData(400, 21);
  RandomForestConfig config;
  config.num_trees = 16;
  config.anchor_feature = 1;
  config.seed = 77;
  const RandomForest forest = RandomForest::Fit(train, config);

  persist::Writer w;
  forest.Serialize(w);
  persist::Reader r(w.bytes());
  const RandomForest restored =
      RandomForest::Deserialize(r, train.feature_names().size());
  r.ExpectEnd();

  EXPECT_EQ(SerializedForest(restored), w.bytes());
  for (const auto& probe : std::vector<std::vector<double>>{
           {1.0, 0.5}, {4.9, 3.0}, {5.1, 1.0}, {9.0, 2.5}}) {
    EXPECT_EQ(restored.Predict(probe), forest.Predict(probe));
  }
}

TEST(DeterminismTest, SerializedHybridAndAnnPredictByteIdentically) {
  const WorkloadProfile profile = CalibratedProfile();

  const HybridModel hybrid = HybridModel::Train({&profile});
  persist::Writer hybrid_w;
  hybrid.Serialize(hybrid_w);
  persist::Reader hybrid_r(hybrid_w.bytes());
  const HybridModel hybrid2 = HybridModel::Deserialize(hybrid_r);
  hybrid_r.ExpectEnd();

  NeuralNetConfig net;
  net.hidden_layers = {8, 8};
  net.epochs = 40;
  const AnnDirectModel ann = AnnDirectModel::Train({&profile}, net);
  persist::Writer ann_w;
  ann.Serialize(ann_w);
  persist::Reader ann_r(ann_w.bytes());
  const AnnDirectModel ann2 = AnnDirectModel::Deserialize(ann_r);
  ann_r.ExpectEnd();

  for (const ProfileRow& row : profile.rows) {
    const ModelInput input = ModelInput::FromRow(row);
    EXPECT_EQ(hybrid2.PredictEffectiveRateQph(profile, input),
              hybrid.PredictEffectiveRateQph(profile, input));
    EXPECT_EQ(hybrid2.PredictResponseTime(profile, input),
              hybrid.PredictResponseTime(profile, input));
    EXPECT_EQ(ann2.PredictResponseTime(profile, input),
              ann.PredictResponseTime(profile, input));
  }
}

TEST(DeterminismTest, WarmRestartedAdvisorMatchesUninterruptedRun) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();

  // One deterministic drive step: pure function of (advisor state, i).
  auto step = [](OnlineAdvisor& advisor, int i, double& t,
                 std::vector<Recommendation>& out) {
    t += i < 60 ? 20.0 : 5.0;  // load shift halfway through
    advisor.OnArrival(t);
    const auto rec = advisor.Recommend(t);
    if (rec.has_value()) {
      out.push_back(*rec);
      advisor.OnObservedResponseTime(t, 4.0 * rec->predicted_response_time);
    }
  };

  for (size_t pool_size : PoolSizesUnderTest()) {
    ThreadPool pool(pool_size);
    AdvisorConfig config;
    config.rate_window_seconds = 400.0;
    config.explore.max_iterations = 160;
    config.explore.num_chains = 4;
    config.explore.seed = 5;
    config.pool = &pool;
    config.fallback_sim = {600, 60, 1, 97};
    config.health_window_count = 12;
    config.health_min_observations = 6;

    // The uninterrupted reference run.
    OnlineAdvisor uninterrupted(model, profile, config);
    std::vector<Recommendation> expected;
    double t = 0.0;
    for (int i = 0; i < 120; ++i) {
      step(uninterrupted, i, t, expected);
    }
    ASSERT_FALSE(expected.empty());

    // The same run interrupted at step 60: snapshot, restore into a fresh
    // advisor, continue. The combined stream must match bit for bit —
    // including the post-restore rung/backoff behaviour.
    OnlineAdvisor before(model, profile, config);
    std::vector<Recommendation> got;
    t = 0.0;
    for (int i = 0; i < 60; ++i) {
      step(before, i, t, got);
    }
    persist::Writer snapshot;
    before.SaveState(snapshot);

    OnlineAdvisor resumed(model, profile, config);
    persist::Reader r(snapshot.bytes());
    resumed.RestoreState(r);
    for (int i = 60; i < 120; ++i) {
      step(resumed, i, t, got);
    }

    ASSERT_EQ(got.size(), expected.size())
        << "restored advisor diverged at pool size " << pool_size;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].timeout_seconds, expected[i].timeout_seconds);
      EXPECT_EQ(got[i].predicted_response_time,
                expected[i].predicted_response_time);
      EXPECT_EQ(got[i].at_utilization, expected[i].at_utilization);
      EXPECT_EQ(got[i].revision, expected[i].revision);
      EXPECT_EQ(got[i].rung, expected[i].rung);
    }
  }
}

// A model whose every prediction throws: the advisor must demote and
// back off, and that in-flight backoff must survive a warm restart.
class OfflineModel final : public PerformanceModel {
 public:
  std::string name() const override { return "Offline"; }
  double PredictResponseTime(const WorkloadProfile&,
                             const ModelInput&) const override {
    throw std::runtime_error("model backend offline");
  }
};

TEST(DeterminismTest, WarmRestartMidBackoffRetriesAtSameSimTime) {
  const OfflineModel model;
  const WorkloadProfile profile = DummyProfile();
  AdvisorConfig config;
  config.rate_window_seconds = 400.0;
  config.explore.max_iterations = 120;
  config.explore.seed = 5;
  config.fallback_sim = {600, 60, 1, 97};
  config.replan_max_attempts = 1;
  config.replan_backoff_seconds = 30.0;

  OnlineAdvisor advisor(model, profile, config);
  double t = 0.0;
  for (int i = 0; i < 20; ++i) {
    t += 20.0;
    advisor.OnArrival(t);
  }
  // The dead model fails the plan: one demotion, backoff armed.
  ASSERT_FALSE(advisor.Recommend(t).has_value());
  ASSERT_EQ(advisor.rung(), AdvisorRung::kSimulator);
  const double deadline = advisor.backoff_until();
  ASSERT_EQ(deadline, t + 30.0);

  // Snapshot mid-backoff and restore into a fresh advisor.
  persist::Writer snapshot;
  advisor.SaveState(snapshot);
  OnlineAdvisor resumed(model, profile, config);
  persist::Reader r(snapshot.bytes());
  resumed.RestoreState(r);
  EXPECT_EQ(resumed.backoff_until(), deadline);
  EXPECT_EQ(resumed.rung(), AdvisorRung::kSimulator);
  EXPECT_EQ(resumed.replan_failure_count(), advisor.replan_failure_count());

  // Both advisors keep honouring the same deadline at the same sim-time:
  // strictly-before polls wait, the poll at exactly `deadline` retries on
  // the fallback simulator, and the recommendations match bit for bit.
  EXPECT_FALSE(advisor.Recommend(deadline - 5.0).has_value());
  EXPECT_FALSE(resumed.Recommend(deadline - 5.0).has_value());
  const auto original = advisor.Recommend(deadline);
  const auto restored = resumed.Recommend(deadline);
  ASSERT_TRUE(original.has_value());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->rung, original->rung);
  EXPECT_EQ(restored->timeout_seconds, original->timeout_seconds);
  EXPECT_EQ(restored->predicted_response_time,
            original->predicted_response_time);
  EXPECT_EQ(restored->revision, original->revision);
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolHardeningTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [](size_t i) {
                         if (i == 13) {
                           throw std::runtime_error("boom");
                         }
                       }),
      std::runtime_error);
  // The pool must stay usable after a failed run.
  std::atomic<int> counter{0};
  pool.ParallelFor(32, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolHardeningTest, SubmitWaitPropagatesException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::logic_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::logic_error);
  // The error is consumed: a later Wait with healthy tasks succeeds.
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolHardeningTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(8, [&](size_t) {
    // Nested call on the same pool: must run inline on the worker instead
    // of waiting on queue slots the outer loop is occupying.
    pool.ParallelFor(16, [&](size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 8 * 16);
}

TEST(ThreadPoolHardeningTest, ChunkedParallelForCoversAllIndicesOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(
      hits.size(), [&](size_t i) { hits[i].fetch_add(1); }, /*grain=*/7);
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolHardeningTest, GlobalPoolIsShared) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
  // Once the shared pool exists, resizing requests must be refused rather
  // than silently ignored.
  EXPECT_FALSE(ThreadPool::SetGlobalSize(a.size() + 1));
}

// ------------------------------------------------- event-engine goldens
//
// Byte-identical golden exports pin the discrete-event engines across the
// throughput overhaul (calendar queue, SoA records, batched RNG draws,
// batched span quantization): the files under tests/golden/ were generated
// from the pre-overhaul engines and any post-overhaul run must reproduce
// them byte for byte. The recipes deliberately sample only through
// libm-free distributions (uniform arrivals via NextDouble, empirical
// service via NextBounded), so the goldens do not depend on the host's
// libm rounding — every downstream value is pure IEEE arithmetic and
// prints identically everywhere.
//
// Regenerate (only when intentionally changing engine semantics) with
// MSPRINT_UPDATE_GOLDEN=1 ./build/tests/determinism_test

std::string GoldenDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendSimQueryLine(std::string* out, size_t i, const SimQuery& q) {
  *out += "query " + std::to_string(i) + " arrival=" +
          GoldenDouble(q.arrival) + " start=" + GoldenDouble(q.start) +
          " depart=" + GoldenDouble(q.depart) + " service=" +
          GoldenDouble(q.service_time) +
          " timed_out=" + (q.timed_out ? "1" : "0") +
          " sprinted=" + (q.sprinted ? "1" : "0") + " sprint_seconds=" +
          GoldenDouble(q.sprint_seconds) + "\n";
}

void AppendSimResult(std::string* out, const SimResult& result) {
  *out += "mean_response_time " + GoldenDouble(result.mean_response_time) +
          "\n";
  *out += "mean_queueing_delay " + GoldenDouble(result.mean_queueing_delay) +
          "\n";
  *out += "fraction_sprinted " + GoldenDouble(result.fraction_sprinted) +
          "\n";
  *out += "fraction_timed_out " + GoldenDouble(result.fraction_timed_out) +
          "\n";
  *out += "total_sprint_seconds " +
          GoldenDouble(result.total_sprint_seconds) + "\n";
  *out += "makespan " + GoldenDouble(result.makespan) + "\n";
  *out += "median " + GoldenDouble(result.MedianResponseTime()) + "\n";
  *out += "p99 " + GoldenDouble(result.PercentileResponseTime(0.99)) + "\n";
}

// Objectives and an anomaly detector for the sections that feed an SLO
// pipeline.
constexpr char kGoldenObjectives[] =
    "window 60\n"
    "objective p99 < 150 budget 0.05\n"
    "objective goodput_ratio > 0.95\n"
    "anomaly queue_depth alpha 0.3 z 4 warmup 8\n";

std::string EventEngineGoldenExport() {
  std::string out;

  // --- single-class queue simulator, spans + metrics attached.
  const EmpiricalDistribution service(
      {40.0, 55.5, 62.25, 70.0, 81.5, 95.25, 110.0, 133.75});
  SimConfig config;
  config.arrival_rate_per_second = 1.0 / 60.0;
  config.arrival_kind = DistributionKind::kUniform;
  config.service = &service;
  config.sprint_speedup = 1.5;
  config.timeout_seconds = 90.0;
  config.budget_capacity_seconds = 30.0;
  config.budget_refill_seconds = 150.0;
  config.slots = 2;
  config.num_queries = 400;
  config.warmup_queries = 40;
  config.seed = 20260808;

  {
    obs::MetricsRegistry metrics;
    obs::SpanCollector spans;
    obs::ObsSession session(&metrics, nullptr);
    SimConfig sunk = config;
    sunk.span_sink = &spans;
    std::vector<SimQuery> trace;
    const SimResult result = SimulateQueue(sunk, &trace);

    out += "== sim/result\n";
    AppendSimResult(&out, result);
    out += "== sim/trace\n";
    for (size_t i = 0; i < std::min<size_t>(trace.size(), 24); ++i) {
      AppendSimQueryLine(&out, i, trace[i]);
    }
    out += "== sim/metrics\n" + metrics.Snapshot().ToText();
    obs::AttributionOptions options;
    options.top_k = 3;
    out += "== sim/attribution\n" +
           obs::FormatAttribution(obs::Attribute(spans.Spans(), options));
  }

  // --- queue simulator on the admission path with the SLO timeline fed.
  {
    SimConfig shed = config;
    shed.arrival_rate_per_second = 1.0 / 75.0;
    shed.slots = 1;
    shed.admission.policy = robust::AdmissionPolicy::kDeadlineAware;
    shed.admission.deadline_slack = 1.0;
    obs::MetricsRegistry metrics;
    obs::SloPipeline pipeline(obs::ParseSloObjectives(kGoldenObjectives));
    shed.slo_sink = &pipeline;
    obs::ObsSession session(&metrics, nullptr);
    std::vector<SimQuery> trace;
    const SimResult result = SimulateQueue(shed, &trace);

    out += "== sim-admission/result\n";
    AppendSimResult(&out, result);
    out += "shed_count " + std::to_string(result.shed_count) + "\n";
    out += "== sim-admission/trace\n";
    for (size_t i = 0; i < std::min<size_t>(trace.size(), 24); ++i) {
      AppendSimQueryLine(&out, i, trace[i]);
      out += "  shed=" + std::string(trace[i].shed ? "1" : "0") + "\n";
    }
    out += "== sim-admission/metrics\n" + metrics.Snapshot().ToText();
    out += "== sim-admission/slo\n" + pipeline.FormatSummary();
  }

  // --- testbed under a fault storm with the overload layer and every obs
  // sink attached. Unlike the recipes above, this one samples lognormal
  // service jitter and exponential arrivals and fault gaps, so its values
  // pass through libm's exp/log.
  {
    TestbedConfig tb;
    tb.mix = QueryMix::Single(WorkloadId::kJacobi);
    tb.policy.timeout_seconds = 70.0;
    tb.utilization = 0.7;
    tb.num_queries = 600;
    tb.warmup_queries = 60;
    tb.seed = 4242;
    tb.faults.toggle_failure_probability = 0.15;
    tb.faults.breaker_trips_per_hour = 2.0;
    tb.faults.outlier_probability = 0.05;
    tb.faults.scheduled_flash_crowds.push_back({3000.0, 3600.0});
    tb.faults.flash_crowd_intensity = 4.0;
    tb.admission.policy = robust::AdmissionPolicy::kDeadlineAware;
    tb.admission.deadline_slack = 2.0;
    tb.retry.enabled = true;
    tb.retry.max_attempts = 3;
    tb.retry.clients = 8;
    tb.retry.abandon_wait_seconds = 150.0;

    obs::MetricsRegistry metrics;
    obs::FlightRecorder recorder(1 << 16);
    recorder.SetMinSeverityAll(obs::Severity::kDebug);
    obs::SpanCollector spans;
    obs::SloPipeline pipeline(obs::ParseSloObjectives(kGoldenObjectives));
    tb.span_sink = &spans;
    tb.slo_sink = &pipeline;
    RunTrace trace;
    {
      obs::ObsSession session(&metrics, &recorder);
      trace = Testbed::Run(tb);
    }

    out += "== testbed/result\n";
    out += "mean_response_time " + GoldenDouble(trace.mean_response_time) +
           "\n";
    out += "mean_queueing_delay " + GoldenDouble(trace.mean_queueing_delay) +
           "\n";
    out += "mean_processing_time " +
           GoldenDouble(trace.mean_processing_time) + "\n";
    out += "mean_unsprinted_processing_time " +
           GoldenDouble(trace.mean_unsprinted_processing_time) + "\n";
    out += "fraction_sprinted " + GoldenDouble(trace.fraction_sprinted) + "\n";
    out += "fraction_timed_out " + GoldenDouble(trace.fraction_timed_out) +
           "\n";
    out += "total_sprint_seconds " +
           GoldenDouble(trace.total_sprint_seconds) + "\n";
    out += "makespan " + GoldenDouble(trace.makespan) + "\n";
    out += "queries " + std::to_string(trace.queries.size()) + " shed " +
           std::to_string(trace.shed_count) + " abandoned " +
           std::to_string(trace.abandoned_count) + " retries " +
           std::to_string(trace.retry_count) + " served " +
           std::to_string(trace.served_count) + " goodput " +
           std::to_string(trace.goodput_count) + " badput " +
           std::to_string(trace.badput_count) + "\n";
    out += "goodput_per_second " + GoldenDouble(trace.goodput_per_second) +
           "\n";
    out += "median " + GoldenDouble(trace.MedianResponseTime()) + "\n";
    out += "p99 " + GoldenDouble(trace.PercentileResponseTime(0.99)) + "\n";
    out += "== testbed/faults\n" + FormatFaultTrace(trace.fault_trace);
    out += "== testbed/trace\n";
    for (size_t i = 0; i < std::min<size_t>(trace.queries.size(), 24); ++i) {
      const Query& q = trace.queries[i];
      out += "query " + std::to_string(q.id) + " request=" +
             std::to_string(q.request_id) + " attempt=" +
             std::to_string(q.attempt) + " arrival=" +
             GoldenDouble(q.arrival) + " first_arrival=" +
             GoldenDouble(q.first_arrival) + " start=" +
             GoldenDouble(q.start) + " depart=" + GoldenDouble(q.depart) +
             " service=" + GoldenDouble(q.service_time) + " size=" +
             GoldenDouble(q.size) + "\n  timed_out=" +
             (q.timed_out ? "1" : "0") + " sprinted=" +
             (q.sprinted ? "1" : "0") + " shed=" + (q.shed ? "1" : "0") +
             " abandoned=" + (q.abandoned ? "1" : "0") + " sprint_begin=" +
             GoldenDouble(q.sprint_begin) + " sprint_seconds=" +
             GoldenDouble(q.sprint_seconds) + "\n";
    }
    out += "== testbed/metrics\n" + metrics.Snapshot().ToText();
    out += "== testbed/slo\n" + pipeline.FormatSummary();
    // The full event stream is long; its count and fingerprint pin every
    // flight-recorder emission, in order.
    const std::string events = obs::EventsToJsonl(recorder.Events());
    out += "== testbed/events\ncount " +
           std::to_string(recorder.Events().size()) + " fingerprint " +
           std::to_string(persist::Fingerprint64(events)) + "\n";
    obs::AttributionOptions options;
    options.top_k = 3;
    out += "== testbed/attribution\n" +
           obs::FormatAttribution(obs::Attribute(spans.Spans(), options));
  }

  return out;
}

TEST(DeterminismTest, EventEngineMatchesCommittedGolden) {
  const std::string got = EventEngineGoldenExport();
  const std::string path =
      std::string(MSPRINT_SOURCE_DIR) + "/tests/golden/event_engine.txt";
  if (const char* update = std::getenv("MSPRINT_UPDATE_GOLDEN");
      update != nullptr && update[0] != '\0' && update[0] != '0') {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    out.close();
    GTEST_SKIP() << "golden rewritten: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " (generate with MSPRINT_UPDATE_GOLDEN=1)";
  std::string want((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  ASSERT_EQ(got.size(), want.size())
      << "export size diverged from the committed pre-overhaul golden";
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace msprint
