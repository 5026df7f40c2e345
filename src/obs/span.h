// Per-query causal span trees with exact additive latency attribution.
//
// A QuerySpan decomposes one query's measured response time into signed
// causal components — queue wait, sustained service (with per-phase
// children), load-interference penalty, fault-injected delay, sprint
// toggle/abort overhead, and the signed sprint delta (time saved or lost
// by sprinting) — answering "why was this query slow under this policy?"
// from an export alone.
//
// Exactness contract: the span timeline is integer nanoseconds of
// simulated time (SpanTicks). Every component is a difference of two
// tick-quantized milestones, so the signed components of a query telescope
// to `depart - arrival` ticks *exactly*, in int64 arithmetic — no
// floating-point drift, no post-hoc normalization. Rounding (at most half
// a nanosecond per milestone) lands inside the component whose boundary it
// quantizes, never in a fudge term. Tests assert the identity bit-for-bit
// over fault-storm runs.
//
// Determinism rules mirror the flight recorder (DESIGN.md §10/§11): spans
// are built only from serial deterministic code (the testbed's and the
// queue simulator's post-run sweep into the run config's span_sink), with
// sim-time stamps. Under those rules the recorded span stream —
// and every attribution/diff export derived from it — is byte-identical
// for any MSPRINT_THREADS. The component taxonomy is append-only: exported
// names feed CI obs-diff baselines.

#ifndef MSPRINT_SRC_OBS_SPAN_H_
#define MSPRINT_SRC_OBS_SPAN_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace msprint {
namespace obs {

// Integer nanoseconds of simulated time. int64 holds ±292 years of
// sim-time, far beyond any run horizon.
using SpanTicks = int64_t;
constexpr double kSpanTicksPerSecond = 1e9;

// Quantizes a sim-time value (seconds) to the span timeline. Rounds half
// away from zero in pure IEEE arithmetic (no libm, inlined: it runs ~10x
// per recorded query), so the result is deterministic across platforms.
// Non-finite input is clamped to the representable range rather than
// invoking UB; NaN maps to 0.
inline SpanTicks TicksFromSeconds(double seconds) {
  // Casting a value outside int64 range (or NaN) is UB; clamp first.
  // ±4e18 ns is comfortably inside int64 and far beyond any sim horizon.
  constexpr double kLimit = 4e18;
  const double scaled = seconds * kSpanTicksPerSecond;
  if (scaled >= 0.0) {  // false for NaN
    return static_cast<SpanTicks>((scaled < kLimit ? scaled : kLimit) + 0.5);
  }
  if (scaled < 0.0) {
    return -static_cast<SpanTicks>((-scaled < kLimit ? -scaled : kLimit) +
                                   0.5);
  }
  return 0;  // NaN
}

inline double SecondsFromTicks(SpanTicks ticks) {
  return static_cast<double>(ticks) / kSpanTicksPerSecond;
}

// Byte-stable fixed-point rendering of a tick count as seconds with nine
// decimals (e.g. "-1.234567890") — every tick value has exactly one
// rendering, so attribution reports diff cleanly.
std::string FormatTicksSeconds(SpanTicks ticks);

// The signed component taxonomy. Append-only: exported names feed the CI
// obs-diff regression gate and committed baselines.
enum class SpanComponent : uint8_t {
  kQueueWait = 0,       // attempt arrival -> dispatch
  kService = 1,         // sustained-rate service work (phase children)
  kInterference = 2,    // load-dependent dispatch overhead
  kFaultDelay = 3,      // fault-injected service outlier inflation
  kToggleOverhead = 4,  // sprint toggle / abort latency paid
  kSprintDelta = 5,     // signed: actual minus unsprinted counterfactual
  kRetryBackoff = 6,    // first arrival -> this attempt's re-arrival
                        // (failed earlier attempts + client backoff)
};
constexpr size_t kNumSpanComponents = 7;

std::string ToString(SpanComponent component);

// Per-phase child of the service component. Phase ticks sum exactly to the
// service component (the last phase boundary is pinned to the service
// milestone, so the telescoping identity holds at this level too).
struct PhaseSpan {
  SpanTicks ticks;
};

// Fixed capacity keeps QuerySpan allocation-free on the record hot path;
// workloads in the catalog have at most four phases.
constexpr size_t kMaxSpanPhases = 8;

// Deliberately a trivial aggregate with no default member initializers:
// the implicit zero-init of ~180 bytes compiled to a `rep stos` whose
// startup cost alone blew the span-record overhead budget. BuildQuerySpan
// writes every field (including the unused phase tail); construct one by
// hand only via value-initialization (`QuerySpan span{};`).
struct QuerySpan {
  uint64_t id;
  uint32_t klass;  // caller-defined class index (workload id)

  // Absolute milestones on the span timeline.
  SpanTicks arrival;
  SpanTicks start;
  SpanTicks depart;
  SpanTicks sprint_begin;  // -1: never sprinted

  std::array<int64_t, kNumSpanComponents> components;

  uint32_t num_phases;
  std::array<PhaseSpan, kMaxSpanPhases> phases;

  bool sprinted;
  bool timed_out;
  bool sprint_aborted;

  int64_t ResponseTicks() const { return depart - arrival; }
  int64_t ComponentSum() const;
  int64_t PhaseSum() const;
  // The additive attribution invariant, checked (never repaired) by the
  // aggregation layer and asserted by tests.
  bool IdentityHolds() const { return ComponentSum() == ResponseTicks(); }
};

// Everything a serial execution path knows about one finished query.
// Milestones are derived from these in one place (BuildQuerySpan) so the
// testbed and the queue simulator attribute identically.
struct SpanInputs {
  uint64_t id = 0;
  uint32_t klass = 0;
  double arrival = 0.0;  // sim seconds
  double start = 0.0;
  double depart = 0.0;
  double service_time = 0.0;      // sustained-rate seconds, no overheads
  double load_factor = 1.0;       // >= 1; dispatch-time load overhead
  double fault_multiplier = 1.0;  // >= 1; injected service outlier
  double toggle_seconds = 0.0;    // total toggle/abort latency paid
  double sprint_begin = -1.0;     // -1: never sprinted
  // First attempt's arrival for retried requests (-1: this IS the first
  // attempt). When set, the span's arrival milestone is the first
  // arrival and kRetryBackoff covers first arrival -> `arrival`.
  double first_arrival = -1.0;
  bool sprinted = false;
  bool timed_out = false;
  bool sprint_aborted = false;
  // Phase work fractions of the query's workload (may be null: no phase
  // children). Fractions sum to ~1; the last boundary is pinned exactly.
  const double* phase_fractions = nullptr;
  size_t num_phases = 0;
};

// Builds the span: quantizes the counterfactual milestone chain
//   arrival -> start -> +service -> +interference -> +fault ->
//   +toggle -> depart
// to ticks and takes consecutive differences, so ComponentSum() ==
// ResponseTicks() by construction.
QuerySpan BuildQuerySpan(const SpanInputs& inputs);

// Batched milestone quantization for a whole run's worth of queries: one
// sized allocation, one tight loop over BuildQuerySpan, ready to hand to
// SpanCollector::RecordBatch. Produces spans bit-identical to calling
// BuildQuerySpan per element — the batch form exists so the engines'
// post-run sweep stays out of the per-query allocation business.
std::vector<QuerySpan> BuildQuerySpanBatch(
    const std::vector<SpanInputs>& inputs);

// Collects spans from one observed run. Recording follows the flight-
// recorder rule — serial deterministic code only — and the hot path is a
// single RecordBatch per run (the mutex guards stray concurrent use, but
// concurrent recording is not deterministic).
class SpanCollector {
 public:
  SpanCollector() = default;

  void Record(const QuerySpan& span);
  // Appends a whole run's spans in one lock acquisition; `spans` is
  // consumed.
  void RecordBatch(std::vector<QuerySpan>&& spans);

  // Spans recorded so far, in record order.
  std::vector<QuerySpan> Spans() const;
  // Moves the collected spans out, leaving the collector empty.
  std::vector<QuerySpan> TakeSpans();
  uint64_t recorded() const;

 private:
  mutable std::mutex mutex_;
  std::vector<QuerySpan> spans_;
};

}  // namespace obs
}  // namespace msprint

#endif  // MSPRINT_SRC_OBS_SPAN_H_
