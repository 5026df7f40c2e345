// Tests for the observability layer (src/obs): sharded metrics, the
// flight recorder ring, byte-stable exports, and the idle/attached helper
// behavior. The cross-pool-size byte-identity of full drives is covered in
// determinism_test.cc; these tests pin down the unit-level contracts.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/recorder.h"

namespace msprint {
namespace obs {
namespace {

// --- MetricsRegistry ----------------------------------------------------

TEST(MetricsRegistryTest, CounterAccumulatesAcrossThreads) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test/hits");
  ThreadPool pool(4);
  pool.ParallelFor(1000, [&](size_t) { counter.Add(3); });
  EXPECT_EQ(counter.Value(), 3000u);
}

TEST(MetricsRegistryTest, GetReturnsStableHandles) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test/a");
  Counter& b = registry.GetCounter("test/a");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);
}

TEST(MetricsRegistryTest, NameKeepsFirstDeterminismTag) {
  MetricsRegistry registry;
  Counter& first = registry.GetCounter("test/t", Determinism::kTiming);
  Counter& again = registry.GetCounter("test/t", Determinism::kStable);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.determinism(), Determinism::kTiming);
}

TEST(MetricsRegistryTest, SnapshotExcludesTimingByDefault) {
  MetricsRegistry registry;
  registry.GetCounter("stable/c").Add(1);
  registry.GetCounter("timing/c", Determinism::kTiming).Add(1);
  registry.GetGauge("timing/g", Determinism::kTiming).Set(2.0);
  registry.GetHistogram("timing/h", Determinism::kTiming).Record(1.0);

  const MetricsSnapshot deterministic = registry.Snapshot();
  ASSERT_EQ(deterministic.counters.size(), 1u);
  EXPECT_EQ(deterministic.counters[0].first, "stable/c");
  EXPECT_TRUE(deterministic.gauges.empty());
  EXPECT_TRUE(deterministic.histograms.empty());

  const MetricsSnapshot full = registry.Snapshot(/*include_timing=*/true);
  EXPECT_EQ(full.counters.size(), 2u);
  EXPECT_EQ(full.gauges.size(), 1u);
  EXPECT_EQ(full.histograms.size(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("z/last").Add(1);
  registry.GetCounter("a/first").Add(1);
  registry.GetCounter("m/middle").Add(1);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].first, "a/first");
  EXPECT_EQ(snapshot.counters[1].first, "m/middle");
  EXPECT_EQ(snapshot.counters[2].first, "z/last");
}

TEST(MetricsRegistryTest, HistogramMergesShardsExactly) {
  MetricsRegistry registry(8);
  Histogram& hist = registry.GetHistogram("test/latency");
  ThreadPool pool(4);
  // 4000 samples spread over racing workers; bucket counts and min/max are
  // order-independent, so the merged summary must be exact.
  pool.ParallelFor(4000, [&](size_t i) {
    hist.Record(0.001 * static_cast<double>(1 + (i % 100)));
  });
  const QuantileSketch merged = hist.Merged();
  EXPECT_EQ(merged.count(), 4000u);
  EXPECT_EQ(merged.rejected(), 0u);
  EXPECT_DOUBLE_EQ(merged.min(), 0.001);
  EXPECT_DOUBLE_EQ(merged.max(), 0.100);
}

// The registry's cells are the sketch's buckets: racing workers recording
// into one Histogram merge to exactly the bytes of a serial sketch at the
// registry accuracy fed the same values (rejections included).
TEST(MetricsRegistryTest, HistogramMergesToSerialSketchBytes) {
  std::vector<double> values;
  for (size_t i = 0; i < 3000; ++i) {
    // Zeros, sub-nanosecond values, exact powers of ten and a log-spread
    // from 1e-9 up to 1e12, plus a sprinkling of rejected samples.
    const double spread = std::pow(10.0, -9.0 + 21.0 * (i % 997) / 996.0);
    switch (i % 7) {
      case 0: values.push_back(0.0); break;
      case 1: values.push_back(3e-10); break;
      case 2: values.push_back(std::pow(10.0, (i % 22) - 9.0)); break;
      case 3: values.push_back(i % 2 == 0 ? -1.0 : std::nan("")); break;
      default: values.push_back(spread); break;
    }
  }
  QuantileSketch serial(kRegistryAccuracy);
  for (const double v : values) serial.Insert(v);

  MetricsRegistry registry(8);
  Histogram& hist = registry.GetHistogram("test/grid");
  ThreadPool pool(4);
  pool.ParallelFor(values.size(), [&](size_t i) { hist.Record(values[i]); });
  EXPECT_EQ(hist.Merged().Serialize(), serial.Serialize());
}

// Five buckets per decade: the cell range spans [1e-9, 1e12].
TEST(MetricsRegistryTest, HistogramCellsCoverTrackedRange) {
  const QuantileSketch grid(kRegistryAccuracy);
  EXPECT_EQ(grid.Index(QuantileSketch::kMinTracked), Histogram::kLowestIndex);
  EXPECT_EQ(grid.Index(1e12), Histogram::kHighestIndex - 1);
  EXPECT_EQ(Histogram::kCells, 107u);
  EXPECT_EQ(grid.Index(10.0) - grid.Index(1.0), 5);
}

TEST(MetricsRegistryTest, HistogramRejectsNonFinite) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("test/h");
  hist.Record(std::numeric_limits<double>::quiet_NaN());
  hist.Record(std::numeric_limits<double>::infinity());
  hist.Record(-1.0);
  hist.Record(2.0);
  const QuantileSketch merged = hist.Merged();
  EXPECT_EQ(merged.count(), 1u);
  EXPECT_EQ(merged.rejected(), 3u);
  EXPECT_DOUBLE_EQ(merged.min(), 2.0);
  EXPECT_DOUBLE_EQ(merged.max(), 2.0);
}

TEST(MetricsRegistryTest, SnapshotRenderingIsByteStable) {
  auto build = [] {
    MetricsRegistry registry;
    registry.GetCounter("t/c").Add(7);
    registry.GetGauge("t/g").Set(0.1 + 0.2);  // not exactly 0.3
    Histogram& hist = registry.GetHistogram("t/h");
    hist.Record(1.5);
    hist.Record(2.5);
    return registry.Snapshot();
  };
  const MetricsSnapshot a = build();
  const MetricsSnapshot b = build();
  EXPECT_EQ(a.ToText(), b.ToText());
  EXPECT_EQ(a.ToJson(), b.ToJson());
  // %.17g round-trips the exact double, not a shortest-form approximation.
  EXPECT_NE(a.ToText().find(StableDouble(0.1 + 0.2)), std::string::npos);
}

TEST(StableDoubleTest, RoundTripsExactly) {
  for (double v : {0.1, 1.0 / 3.0, 1e-300, 123456.789, 0.0}) {
    EXPECT_EQ(std::stod(StableDouble(v)), v) << StableDouble(v);
  }
}

// --- FlightRecorder -----------------------------------------------------

Event MakeEvent(double time, Severity severity = Severity::kInfo,
                Subsystem subsystem = Subsystem::kTestbed) {
  Event event;
  event.time = time;
  event.kind = EventKind::kQueueArrival;
  event.subsystem = subsystem;
  event.severity = severity;
  return event;
}

TEST(FlightRecorderTest, RingOverwritesOldestFirst) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(MakeEvent(static_cast<double>(i)));
  }
  const std::vector<Event> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().time, 6.0);
  EXPECT_DOUBLE_EQ(events.back().time, 9.0);
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.overwritten(), 6u);
}

TEST(FlightRecorderTest, SeverityFloorIsPerSubsystem) {
  FlightRecorder recorder;
  recorder.SetMinSeverity(Subsystem::kTestbed, Severity::kWarn);
  EXPECT_FALSE(recorder.Wants(Subsystem::kTestbed, Severity::kInfo));
  EXPECT_TRUE(recorder.Wants(Subsystem::kTestbed, Severity::kWarn));
  EXPECT_TRUE(recorder.Wants(Subsystem::kOnline, Severity::kDebug));

  recorder.Record(MakeEvent(1.0, Severity::kDebug));  // filtered
  recorder.Record(MakeEvent(2.0, Severity::kError));  // kept
  recorder.Record(MakeEvent(3.0, Severity::kDebug, Subsystem::kOnline));
  EXPECT_EQ(recorder.Events().size(), 2u);
  EXPECT_EQ(recorder.filtered(), 1u);
}

TEST(FlightRecorderTest, FormatTailIsByteStable) {
  auto build = [] {
    FlightRecorder recorder;
    Event event = MakeEvent(12.345678);
    event.kind = EventKind::kRungTransition;
    event.subsystem = Subsystem::kOnline;
    event.severity = Severity::kWarn;
    event.id = 2;
    event.value = 0.75;
    recorder.Record(event);
    return recorder.FormatTail();
  };
  const std::string tail = build();
  EXPECT_EQ(tail, build());
  EXPECT_NE(tail.find("rung-transition"), std::string::npos);
  EXPECT_NE(tail.find("online"), std::string::npos);
  EXPECT_NE(tail.find("sev=warn"), std::string::npos);
}

TEST(ExportTest, JsonlOneLinePerEvent) {
  FlightRecorder recorder;
  recorder.Record(MakeEvent(1.0));
  recorder.Record(MakeEvent(2.0));
  const std::string jsonl = EventsToJsonl(recorder.Events());
  size_t lines = 0;
  for (char c : jsonl) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(jsonl.find("{\"time\":"), 0u);
}

TEST(ExportTest, ChromeTraceSpansAndInstants) {
  Event instant = MakeEvent(1.0);
  Event span = MakeEvent(2.0);
  span.duration = 0.5;
  const std::string trace = EventsToChromeTrace({instant, span});
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  // ts is microseconds of simulated time.
  EXPECT_NE(trace.find("\"ts\":2000000"), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":500000"), std::string::npos);
}

// --- attachment helpers -------------------------------------------------

TEST(ObsSessionTest, HelpersAreNoOpsWhenIdle) {
  ASSERT_EQ(ActiveMetrics(), nullptr);
  ASSERT_EQ(ActiveRecorder(), nullptr);
  // Must not crash or allocate a registry.
  Count("idle/counter");
  Observe("idle/hist", 1.0);
  SetGauge("idle/gauge", 2.0);
  Emit(1.0, EventKind::kReplan, Subsystem::kOnline, Severity::kInfo);
  EXPECT_EQ(ActiveMetrics(), nullptr);
}

TEST(ObsSessionTest, SessionsNestAndRestore) {
  MetricsRegistry outer_metrics;
  MetricsRegistry inner_metrics;
  FlightRecorder recorder;
  {
    ObsSession outer(&outer_metrics, &recorder);
    EXPECT_EQ(ActiveMetrics(), &outer_metrics);
    Count("nest/hits");
    {
      ObsSession inner(&inner_metrics, nullptr);
      EXPECT_EQ(ActiveMetrics(), &inner_metrics);
      EXPECT_EQ(ActiveRecorder(), nullptr);
      Count("nest/hits");
    }
    EXPECT_EQ(ActiveMetrics(), &outer_metrics);
    EXPECT_EQ(ActiveRecorder(), &recorder);
    Count("nest/hits");
  }
  EXPECT_EQ(ActiveMetrics(), nullptr);
  EXPECT_EQ(ActiveRecorder(), nullptr);
  EXPECT_EQ(outer_metrics.GetCounter("nest/hits").Value(), 2u);
  EXPECT_EQ(inner_metrics.GetCounter("nest/hits").Value(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace msprint
