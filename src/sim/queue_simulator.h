// Timeout-aware first-principles queue simulator (Section 2.2, Algorithm 1).
//
// This is the predictive half of the hybrid model: a G/G/k FIFO queue whose
// only model of sprinting is Equation 1's linear speedup on remaining work
// at a single rate (the effective sprint rate). It deliberately knows
// nothing about workload phases, sprint-toggle latency or interference —
// those runtime dynamics live in the ground-truth testbed and are absorbed
// into the effective sprint rate by the random decision forest.
//
// Unlike Algorithm 1's microsecond tick loop, this implementation is
// event-driven (arrivals, departures, in-flight timeouts), which preserves
// the algorithm's externally visible semantics exactly while running orders
// of magnitude faster — what makes the paper's ">900 predictions per
// minute" practical. A literal tick-loop shim (tick_simulator.h) is kept
// for conformance testing.

#ifndef MSPRINT_SRC_SIM_QUEUE_SIMULATOR_H_
#define MSPRINT_SRC_SIM_QUEUE_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/distribution.h"
#include "src/common/stats.h"
#include "src/robust/admission.h"
#include "src/sprint/budget.h"

namespace msprint {

namespace obs {
class SloPipeline;
class SpanCollector;
}  // namespace obs

// Everything the predictive simulator needs to know. Note there is no
// workload or mechanism here: the simulator sees only rates, a timeout and
// a budget, exactly as in Figure 2's "timeout-aware queue simulator" box.
struct SimConfig {
  // Arrival process. When `arrival_trace` is set, the recorded timestamps
  // (seconds, ascending) are replayed verbatim instead of sampling the
  // arrival distribution — the paper's "what-if questions for past ...
  // workloads" applied to an actual recorded trace. num_queries is then
  // clamped to the trace length.
  double arrival_rate_per_second = 0.01;
  DistributionKind arrival_kind = DistributionKind::kExponential;
  const std::vector<double>* arrival_trace = nullptr;

  // Service process at the sustained rate. Owned by the caller; must
  // outlive the simulation. Typically an EmpiricalDistribution resampling
  // profiled service times (Section 2.2) or an analytic stand-in.
  const Distribution* service = nullptr;

  // Effective (or marginal, for the No-ML baseline) sprint speedup:
  // mu_e / mu >= 1. A sprinting query's remaining work completes this much
  // faster (Equation 1).
  double sprint_speedup = 1.0;

  // Policy knobs.
  double timeout_seconds = 60.0;
  double budget_capacity_seconds = 40.0;
  double budget_refill_seconds = 200.0;

  // Execution engine slots (k of G/G/k).
  int slots = 1;

  // Horizon.
  size_t num_queries = 10000;
  size_t warmup_queries = 0;  // excluded from the reported statistics

  uint64_t seed = 1;

  // Admission control on the simulated arrival path (DESIGN.md §14). The
  // default admits everything — the historical behaviour, bit-exact.
  // Shed queries never enqueue, never run and are excluded from the
  // response-time statistics (counted in SimResult::shed_count).
  robust::AdmissionConfig admission;

  // Counterfactual perturbation hook (src/obs/whatif; DESIGN.md §16):
  // multiplies every sampled service time. The 1.0 default is a bitwise
  // identity, so unperturbed configs replay byte-identically.
  double service_time_scale = 1.0;

  // Observability sinks for this run; nullptr records nothing. The post-
  // warmup queries are recorded into `span_sink` as attribution spans, and
  // the event loop feeds `slo_sink` windowed signals (arrivals, responses,
  // sheds, timeouts, sprint engages, queue depth, budget level) at sim
  // timestamps and finishes it at the makespan. Both are written from the
  // run's own serial loop, so a sink must belong to one run at a time:
  // pool workers (replications, SA chains, whatif reruns) each pass their
  // own or none.
  obs::SpanCollector* span_sink = nullptr;
  obs::SloPipeline* slo_sink = nullptr;
};

// Per-query record emitted by a simulation.
struct SimQuery {
  double arrival = 0.0;
  double service_time = 0.0;  // at sustained rate
  double start = 0.0;
  double depart = 0.0;
  bool timed_out = false;
  bool sprinted = false;
  bool shed = false;  // turned away by the admission controller
  double sprint_seconds = 0.0;

  double ResponseTime() const { return depart - arrival; }
  double QueueingDelay() const { return start - arrival; }
};

struct SimResult {
  std::vector<double> response_times;  // post-warmup
  double mean_response_time = 0.0;
  double mean_queueing_delay = 0.0;
  double fraction_sprinted = 0.0;
  double fraction_timed_out = 0.0;
  double total_sprint_seconds = 0.0;
  double makespan = 0.0;  // departure time of the last query
  size_t shed_count = 0;  // post-warmup arrivals the controller turned away

  double MedianResponseTime() const;
  double PercentileResponseTime(double q) const;
};

// Runs one replication. Also exposes the raw per-query trace when
// `trace_out` is non-null (used by tests and the Fig 1 timeline bench).
SimResult SimulateQueue(const SimConfig& config,
                        std::vector<SimQuery>* trace_out = nullptr);

}  // namespace msprint

#endif  // MSPRINT_SRC_SIM_QUEUE_SIMULATOR_H_
