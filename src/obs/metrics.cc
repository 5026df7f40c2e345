#include "src/obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

namespace msprint {
namespace obs {

namespace {

// Stable per-thread shard slot: threads take increasing ids on first use
// and map onto shards by masking. Which thread lands on which shard is
// scheduling-dependent, but every stable aggregate is an order-independent
// reduction over shards, so exports do not care.
size_t ThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

size_t ResolveShards(size_t requested) {
  if (requested == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    requested = std::clamp<size_t>(hardware == 0 ? 8 : hardware, 8, 64);
  }
  return RoundUpPowerOfTwo(requested);
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// CAS-min/max on a double stored as bits. Works for the non-negative
// values histograms accept; the reduction is order-independent.
void AtomicMinDouble(std::atomic<uint64_t>& slot, double v) {
  uint64_t observed = slot.load(std::memory_order_relaxed);
  while (v < BitsDouble(observed) &&
         !slot.compare_exchange_weak(observed, DoubleBits(v),
                                     std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<uint64_t>& slot, double v) {
  uint64_t observed = slot.load(std::memory_order_relaxed);
  while (v > BitsDouble(observed) &&
         !slot.compare_exchange_weak(observed, DoubleBits(v),
                                     std::memory_order_relaxed)) {
  }
}

// Shared index function of every registry histogram.
const QuantileSketch& RegistryGrid() {
  static const QuantileSketch grid(kRegistryAccuracy);
  return grid;
}

// Appends the non-empty buckets as `label:count` pairs, labels wrapped in
// `quote`: the zero bucket is `z`, log buckets are their signed index.
void AppendBuckets(std::string& out, const HistogramSnapshot& h,
                   const char* quote) {
  char buf[64];
  const char* separator = "";
  if (h.zero_count > 0) {
    std::snprintf(buf, sizeof(buf), "%sz%s:%" PRIu64, quote, quote,
                  h.zero_count);
    out += buf;
    separator = ",";
  }
  for (const auto& [index, bucket_count] : h.nonzero_buckets) {
    std::snprintf(buf, sizeof(buf), "%s%s%" PRId32 "%s:%" PRIu64, separator,
                  quote, index, quote, bucket_count);
    out += buf;
    separator = ",";
  }
}

}  // namespace

std::string StableDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------- Counter

Counter::Counter(size_t shards, Determinism determinism)
    : determinism_(determinism), cells_(shards) {}

void Counter::Add(uint64_t n) {
  cells_[ThreadSlot() & (cells_.size() - 1)].fetch_add(
      n, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell.load(std::memory_order_relaxed);
  }
  return total;
}

// ------------------------------------------------------------------ Gauge

void Gauge::Set(double value) {
  value_.store(value, std::memory_order_relaxed);
}

double Gauge::Value() const { return value_.load(std::memory_order_relaxed); }

// -------------------------------------------------------------- Histogram

Histogram::Histogram(size_t shards, Determinism determinism)
    : determinism_(determinism),
      shards_(shards),
      cells_(shards * kCells),
      rejected_(shards),
      min_bits_(DoubleBits(std::numeric_limits<double>::infinity())),
      max_bits_(DoubleBits(-std::numeric_limits<double>::infinity())) {}

void Histogram::Record(double value) {
  const size_t shard = ThreadSlot() & (shards_ - 1);
  if (!std::isfinite(value) || value < 0.0) {
    rejected_[shard].fetch_add(1, std::memory_order_relaxed);
    return;
  }
  size_t cell = 0;  // the zero bucket
  if (value >= QuantileSketch::kMinTracked) {
    const int32_t index = std::clamp(RegistryGrid().Index(value),
                                     kLowestIndex, kHighestIndex);
    cell = 1 + static_cast<size_t>(index - kLowestIndex);
  }
  cells_[shard * kCells + cell].fetch_add(1, std::memory_order_relaxed);
  AtomicMinDouble(min_bits_, value);
  AtomicMaxDouble(max_bits_, value);
}

QuantileSketch Histogram::Merged() const {
  QuantileSketch merged(kRegistryAccuracy);
  for (size_t cell = 0; cell < kCells; ++cell) {
    uint64_t total = 0;
    for (size_t shard = 0; shard < shards_; ++shard) {
      total += cells_[shard * kCells + cell].load(std::memory_order_relaxed);
    }
    if (total == 0) {
      continue;
    }
    if (cell == 0) {
      merged.zero_count_ = total;
    } else {
      merged.buckets_.emplace_hint(
          merged.buckets_.end(),
          kLowestIndex + static_cast<int32_t>(cell - 1), total);
    }
    merged.count_ += total;
  }
  for (const auto& cell : rejected_) {
    merged.rejected_ += cell.load(std::memory_order_relaxed);
  }
  if (merged.count_ > 0) {
    merged.has_bounds_ = true;
    merged.min_ = BitsDouble(min_bits_.load(std::memory_order_relaxed));
    merged.max_ = BitsDouble(max_bits_.load(std::memory_order_relaxed));
  }
  return merged;
}

HistogramSnapshot SummarizeSketch(std::string name,
                                  const QuantileSketch& sketch) {
  HistogramSnapshot h;
  h.name = std::move(name);
  h.count = sketch.count();
  h.rejected = sketch.rejected();
  h.min = sketch.min();
  h.max = sketch.max();
  h.approx_mean = sketch.ApproxMean();
  h.p50 = sketch.Quantile(0.50);
  h.p90 = sketch.Quantile(0.90);
  h.p99 = sketch.Quantile(0.99);
  h.zero_count = sketch.zero_count();
  h.nonzero_buckets.assign(sketch.buckets().begin(), sketch.buckets().end());
  return h;
}

// --------------------------------------------------------------- Registry

MetricsRegistry::MetricsRegistry(size_t shards)
    : shards_(ResolveShards(shards)) {}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     Determinism determinism) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot.reset(new Counter(shards_, determinism));
  }
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 Determinism determinism) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot.reset(new Gauge(determinism));
  }
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         Determinism determinism) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot.reset(new Histogram(shards_, determinism));
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot(bool include_timing) const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    if (include_timing || counter->determinism() == Determinism::kStable) {
      snapshot.counters.emplace_back(name, counter->Value());
    }
  }
  for (const auto& [name, gauge] : gauges_) {
    if (include_timing || gauge->determinism() == Determinism::kStable) {
      snapshot.gauges.emplace_back(name, gauge->Value());
    }
  }
  for (const auto& [name, histogram] : histograms_) {
    if (!include_timing && histogram->determinism() != Determinism::kStable) {
      continue;
    }
    snapshot.histograms.push_back(
        SummarizeSketch(name, histogram->Merged()));
  }
  return snapshot;
}

// --------------------------------------------------------------- exports

std::string MetricsSnapshot::ToText() const {
  std::string out;
  char buf[128];
  for (const auto& [name, value] : counters) {
    std::snprintf(buf, sizeof(buf), "counter %s %" PRIu64 "\n", name.c_str(),
                  value);
    out += buf;
  }
  for (const auto& [name, value] : gauges) {
    out += "gauge " + name + " " + StableDouble(value) + "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    std::snprintf(buf, sizeof(buf), "hist %s count=%" PRIu64
                  " rejected=%" PRIu64,
                  h.name.c_str(), h.count, h.rejected);
    out += buf;
    out += " min=" + StableDouble(h.min) + " max=" + StableDouble(h.max) +
           " mean~" + StableDouble(h.approx_mean) + " p50~" +
           StableDouble(h.p50) + " p90~" + StableDouble(h.p90) + " p99~" +
           StableDouble(h.p99) + " buckets=";
    AppendBuckets(out, h, "");
    out += "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  char buf[96];
  for (size_t i = 0; i < counters.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64,
                  i == 0 ? "" : ",", counters[i].first.c_str(),
                  counters[i].second);
    out += buf;
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + gauges[i].first + "\":" +
           StableDouble(gauges[i].second);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    out += (i == 0 ? "\"" : ",\"") + h.name + "\":{";
    std::snprintf(buf, sizeof(buf), "\"count\":%" PRIu64
                  ",\"rejected\":%" PRIu64, h.count, h.rejected);
    out += buf;
    out += ",\"min\":" + StableDouble(h.min) + ",\"max\":" +
           StableDouble(h.max) + ",\"approx_mean\":" +
           StableDouble(h.approx_mean) + ",\"p50\":" + StableDouble(h.p50) +
           ",\"p90\":" + StableDouble(h.p90) + ",\"p99\":" +
           StableDouble(h.p99) + ",\"buckets\":{";
    AppendBuckets(out, h, "\"");
    out += "}}";
  }
  out += "}}";
  return out;
}

}  // namespace obs
}  // namespace msprint
