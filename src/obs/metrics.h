// Deterministic metrics registry: counters, gauges and log-bucketed
// histograms, sharded per thread so hot paths record lock-free (one
// relaxed atomic RMW), with shards merged in slot order at export time.
//
// Determinism contract (the PR-1 invariant extended to telemetry): for
// metrics tagged Determinism::kStable, *same seed => byte-identical
// exported snapshot for any MSPRINT_THREADS / pool size*. That holds
// because every stable aggregate is an order-independent reduction —
// integer counter sums, integer histogram bucket counts, exact min/max —
// and because stable gauges are only ever Set from serial deterministic
// code. Anything measured with a wall clock (task latency, queue depth at
// submit time) must be tagged Determinism::kTiming; timing metrics are
// excluded from the deterministic export path that CI diffs byte-for-byte.
//
// Lookup by name takes the registry mutex; hot call sites should fetch
// their Counter*/Histogram* handles once (they are stable for the life of
// the registry) and record through the handle.

#ifndef MSPRINT_SRC_OBS_METRICS_H_
#define MSPRINT_SRC_OBS_METRICS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/sketch.h"

namespace msprint {
namespace obs {

enum class Determinism : uint8_t {
  kStable = 0,  // order-independent; included in deterministic exports
  kTiming = 1,  // wall-clock derived; excluded from deterministic exports
};

// Byte-stable decimal rendering of a double (%.17g: bit-exact round trip).
std::string StableDouble(double value);

// Monotonic counter, sharded across padded atomic cells.
class Counter {
 public:
  void Add(uint64_t n = 1);
  void Increment() { Add(1); }
  uint64_t Value() const;
  Determinism determinism() const { return determinism_; }

 private:
  friend class MetricsRegistry;
  Counter(size_t shards, Determinism determinism);

  const Determinism determinism_;
  std::vector<std::atomic<uint64_t>> cells_;  // size is a power of two
};

// Last-value gauge. Stable gauges must only be Set from serial
// deterministic code (concurrent Set order is scheduling-dependent).
class Gauge {
 public:
  void Set(double value);
  double Value() const;
  Determinism determinism() const { return determinism_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(Determinism determinism) : determinism_(determinism) {}

  const Determinism determinism_;
  std::atomic<double> value_{0.0};
};

// Relative accuracy of every registry histogram and span-attribution
// sketch: gamma = 10^(1/5), i.e. five buckets per decade.
inline constexpr double kRegistryAccuracy = 0.22627364030628608;

// Sharded log-bucketed histogram: per-shard atomic cells indexed by
// QuantileSketch::Index at kRegistryAccuracy, global atomic min/max via
// CAS. All reductions are order-independent, so the merged sketch is
// deterministic even when samples arrive from racing workers.
class Histogram {
 public:
  // Cells per shard: the zero bucket plus sketch indices
  // kLowestIndex..kHighestIndex, which cover [1e-9, 1e12] with one bucket
  // to spare. Larger values saturate into the top cell (count, min and
  // max stay exact).
  static constexpr int32_t kLowestIndex = -44;
  static constexpr int32_t kHighestIndex = 61;
  static constexpr size_t kCells = 2 + kHighestIndex - kLowestIndex;

  // Records one sample; NaN / negative / non-finite values are rejected
  // (counted separately), as QuantileSketch::Insert does.
  void Record(double value);

  // Merges every shard (in slot order) into a sketch at kRegistryAccuracy.
  QuantileSketch Merged() const;

  Determinism determinism() const { return determinism_; }

 private:
  friend class MetricsRegistry;
  Histogram(size_t shards, Determinism determinism);

  const Determinism determinism_;
  const size_t shards_;                         // power of two
  std::vector<std::atomic<uint64_t>> cells_;    // shards_ * kCells
  std::vector<std::atomic<uint64_t>> rejected_;  // per shard
  std::atomic<uint64_t> min_bits_;  // bit pattern of the running min
  std::atomic<uint64_t> max_bits_;  // bit pattern of the running max
};

// One exported histogram: scalar summary plus the non-empty buckets.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t rejected = 0;
  double min = 0.0;
  double max = 0.0;
  double approx_mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  // Samples in the sketch's zero bucket (rendered as bucket `z`), then the
  // non-empty log buckets in index order.
  uint64_t zero_count = 0;
  std::vector<std::pair<int32_t, uint64_t>> nonzero_buckets;
};

// Summarizes a sketch into an exported HistogramSnapshot: registry
// exports, span attribution and the SLO summary all render their `hist`
// lines through it (and parse under the same obs-diff grammar).
HistogramSnapshot SummarizeSketch(std::string name,
                                  const QuantileSketch& sketch);

// A point-in-time export of a registry, sorted by metric name. Rendering
// is byte-stable: identical metric values produce identical bytes.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  // One line per metric, `counter|gauge|hist <name> ...`, sorted by name.
  std::string ToText() const;
  // Single JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  // `shards` is rounded up to a power of two; 0 picks one from the
  // hardware concurrency (clamped to [8, 64]).
  explicit MetricsRegistry(size_t shards = 0);

  // Find-or-create by name. The returned pointer is stable for the life of
  // the registry. A name keeps the determinism tag of its first
  // registration. Names should be `subsystem/metric_name` with characters
  // safe to embed in JSON unescaped ([a-z0-9_/.-]).
  Counter& GetCounter(const std::string& name,
                      Determinism determinism = Determinism::kStable);
  Gauge& GetGauge(const std::string& name,
                  Determinism determinism = Determinism::kStable);
  Histogram& GetHistogram(const std::string& name,
                          Determinism determinism = Determinism::kStable);

  // Exports every metric (sorted by name). With `include_timing` false —
  // the deterministic export path — kTiming metrics are omitted.
  MetricsSnapshot Snapshot(bool include_timing = false) const;

  size_t shards() const { return shards_; }

 private:
  const size_t shards_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace msprint

#endif  // MSPRINT_SRC_OBS_METRICS_H_
