// msprint perfbench: one closed-loop client drives one workload of the
// model-driven sprinting stack and reports end-to-end and per-layer
// metrics. METRICS.md maps every metric to its layer and workload.
//
// A run has three phases: set-up (timed several times, median reported),
// a measured phase of operations (ops) drawn deterministically from the
// seed, and an untimed check of every op's output. The traced run replays
// a fixed prefix of ops three times — untraced, with spans and the
// prediction decorator (times), and with an obs::MetricsRegistry attached
// as well (counts) — so per-layer counts repeat exactly and the
// differences from the untraced pass are the tracing overhead.

#ifndef MSPRINT_PERFBENCH_BENCH_H_
#define MSPRINT_PERFBENCH_BENCH_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/models.h"
#include "src/obs/metrics.h"

namespace msprint {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------- tracing

// Registry counters snapshotted at every client-side span boundary; a
// span keeps the deltas, so each count lands on the call that caused it.
inline constexpr std::array<const char*, 12> kTracedCounters = {
    "sim/runs",         "sim/queries",       "testbed/runs",
    "testbed/queries",  "explore/accepted",  "explore/rejected",
    "robust/shed",      "robust/retries",    "robust/abandoned",
    "robust/goodput",   "robust/badput",     "pool/tasks_submitted"};

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  uint64_t op = 0;      // index of the op the span belongs to
  const char* name = "";
  double start = 0.0;  // seconds since the tracer started
  double end = 0.0;
  std::array<uint64_t, kTracedCounters.size()> counters{};  // deltas
  std::vector<std::pair<const char*, double>> attrs;

  double duration() const { return end - start; }
};

// Keeps spans in memory for one traced pass. Spans opened with Span come
// from the client thread and nest; Leaf records a span from any thread
// (pool workers running predictions) under the client's current span.
// With a null registry spans carry times only and every delta is 0.
class Tracer {
 public:
  explicit Tracer(obs::MetricsRegistry* registry);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double Now() const { return SecondsSince(origin_); }
  void Leaf(const char* name, double start, double end);

  std::vector<SpanRecord> spans() const;

 private:
  friend class Span;

  std::array<uint64_t, kTracedCounters.size()> ReadCounters() const;
  void Add(SpanRecord record);

  std::array<obs::Counter*, kTracedCounters.size()> counters_{};
  const Clock::time_point origin_ = Clock::now();
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> current_{0};     // innermost open client span
  std::atomic<uint64_t> current_op_{0};  // op of that span
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

// RAII span around one call into a layer. With a null tracer (the timed
// runs) it does nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t op);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Set(const char* attr, double value);

 private:
  Tracer* tracer_;
  SpanRecord record_;
  std::array<uint64_t, kTracedCounters.size()> before_{};
  uint64_t saved_current_ = 0;
  uint64_t saved_op_ = 0;
};

// PerformanceModel decorator handed to the explorer, the batch predictor
// and the evaluator in traced runs: every prediction becomes a `predict`
// leaf span, recorded thread-safely from whichever thread made it.
class TimedModel final : public PerformanceModel {
 public:
  TimedModel(const PerformanceModel& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  double PredictResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input) const override;

 private:
  const PerformanceModel& inner_;
  Tracer& tracer_;
};

// Self time of every span: its duration minus the part of it that the
// union of its children's intervals covers. Indexed like `spans`.
std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans);

// Writes one JSON object per span (with its self time) to `path`.
void WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

// ------------------------------------------------------------ workloads

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

class Workload {
 public:
  virtual ~Workload() = default;

  // One set-up, timed by the caller and repeated; the last one's state is
  // what the ops use.
  virtual void SetUp() = 0;
  // Ops in the prefix every run completes: the digest and the traced
  // passes cover exactly ops [0, FixedOps()).
  virtual size_t FixedOps() const = 0;
  // Runs op i (timed) and keeps its output. `tracer` is null in timed
  // runs. Returns the op's kind, used to group latencies.
  virtual const char* RunOp(size_t i, Tracer* tracer) = 0;
  // Checks op i's kept output, untimed. Returns "" when it is correct,
  // otherwise what was wrong.
  virtual std::string Check(size_t i) const = 0;
  // Appends op i's simulated outputs to the digest input.
  virtual void AppendOutput(size_t i, std::string& bytes) const = 0;
  // Prints this workload's own end-to-end figures over ops [0, n), whose
  // host latencies are `seconds`.
  virtual void Summarize(size_t n, const std::vector<double>& seconds,
                         std::ostream& out) const = 0;
  // Per-layer figures the ops kept (e.g. calibration clamps), over ops
  // [0, n); the span-derived ones are computed by the runner.
  virtual void AddLayerMetrics(size_t n, MetricMap& metrics) const = 0;
};

// Makes the workload `name` (model_build, policy_search or serve_storm)
// for `seed`; `storm_path` is the base .storm file serve_storm varies.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed,
                                       const std::string& storm_path);

}  // namespace perfbench
}  // namespace msprint

#endif  // MSPRINT_PERFBENCH_BENCH_H_
