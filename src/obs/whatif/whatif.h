// Causal what-if profiler: exact counterfactual attribution over the
// deterministic engines (DESIGN.md §16).
//
// A Coz-style causal profiler asks "what would the end-to-end objective do
// if component X ran δ faster?" and answers it by *sampling*. This repo
// does not have to sample: the engines are bit-deterministic (same seed ⇒
// byte-identical run) and the span layer (src/obs/span.h) decomposes every
// response time into signed components that telescope exactly. So a
// virtual speedup here is an exact rerun — perturb one knob, replay the
// identical seed, and the measured delta is the ground-truth causal
// effect, not an estimate.
//
// Each experiment reports three numbers side by side:
//   predicted — the first-order analytic shift from the span telescoping
//               sum: scale the knob's components by a closed-form factor
//               g(δ) and recompute the objective from the base run's
//               component totals alone (no rerun);
//   measured  — the exact objective from the counterfactual rerun (same
//               base seed, perturbed config);
//   error     — predicted − measured: how far a linear span model is from
//               the true, queueing-coupled effect (the paper's Figure 7
//               methodology as an always-available profiling verb).
// On interference-free workloads (no queueing, no faults, dyadic service
// times) the first-order prediction is *exact* — tests assert predicted ==
// measured bit-for-bit.
//
// Determinism contract: RunWhatif fans experiments over
// ThreadPool::Global() (each item writes slot i only, merge in index
// order) and masks the process-global ObsSession for the duration, so
// every export is byte-identical for any MSPRINT_THREADS. Each rerun
// hands the engine its own worker-local SpanCollector and SloPipeline
// through the config's span_sink / slo_sink, so the SLO columns come
// from the same live feed as `msprint slo` and no sink is shared across
// workers.

#ifndef MSPRINT_SRC_OBS_WHATIF_WHATIF_H_
#define MSPRINT_SRC_OBS_WHATIF_WHATIF_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/sim/queue_simulator.h"
#include "src/testbed/testbed.h"

namespace msprint {

class ThreadPool;

namespace whatif {

// The perturbable knob registry, spanning the stack. Append-only: knob
// names feed exported metric names and persisted reports.
enum class Knob : uint8_t {
  kToggleLatency = 0,   // sprint toggle latency (mechanism overhead)
  kServiceRate = 1,     // sustained service rate (1+δ faster service)
  kSprintRate = 2,      // time saved per engaged sprint
  kSprintTimeout = 3,   // policy timeout before a sprint engages
  kBreakerCooldown = 4, // breaker lockout duration after a trip
  kRetryBackoff = 5,    // client retry backoff base
  kAdmission = 6,       // admission policy threshold (cap/slack/target)
  kSloWindow = 7,       // SLO tumbling-window size (observability only)
};
inline constexpr size_t kNumKnobs = 8;

std::string ToString(Knob knob);
// Parses a knob name ("service-rate", ...); false on unknown names.
bool ParseKnob(std::string_view name, Knob* out);

// Which engine replays the scenario.
enum class Engine : uint8_t { kTestbed = 0, kSim = 1 };

// One scenario: a fully specified engine config plus (optionally) SLO
// objectives evaluated on each rerun. The configs' own span_sink and
// slo_sink are ignored: every rerun supplies worker-local ones.
struct Scenario {
  Engine engine = Engine::kTestbed;
  TestbedConfig testbed;
  // Used when engine == kSim. sim.service is caller-owned and must
  // outlive every rerun.
  SimConfig sim;
  // Objectives are evaluated live on a worker-local pipeline per rerun
  // (every signal the engine feeds, warmup included), so alert counts are
  // comparable across experiments and equal a `msprint slo` run of the
  // same config.
  obs::SloConfig slo;
  bool evaluate_slo = false;
};

// One planned experiment: perturb `knob` by relative delta `delta`
// (e.g. +1.0 = a 2x virtual speedup of the knob's rate, -0.5 = half).
struct Experiment {
  Knob knob = Knob::kServiceRate;
  double delta = 0.0;
};

// True when the knob can affect this scenario at all (e.g. retry-backoff
// needs retries enabled; breaker-cooldown needs breaker trips scheduled).
bool Applicable(const Scenario& scenario, Knob knob);

// Applies the knob perturbation to a scenario copy. Precondition:
// Applicable() and a valid delta (finite, > -1, != 0).
void ApplyKnob(Scenario& scenario, Knob knob, double delta);

// The deterministic experiment plan: requested knobs crossed with the
// delta grid, in knob-major order, inapplicable knobs recorded aside.
struct Plan {
  std::vector<Experiment> experiments;
  std::vector<Knob> skipped;  // requested but inapplicable, in input order
};

// Every knob in registry order — the default `--knobs` set (filtered by
// applicability in PlanExperiments).
std::vector<Knob> AllKnobs();

// Crosses knobs x deltas. Throws std::invalid_argument on an invalid
// delta (non-finite, <= -1, or 0: a null experiment) or an empty grid.
Plan PlanExperiments(const Scenario& scenario, const std::vector<Knob>& knobs,
                     const std::vector<double>& deltas);

// Exact objective bundle from one (re)run, summarized from the run's
// spans and trace. Component ticks are the span telescoping sums — the
// base run's feed the first-order predictions.
struct Measurement {
  uint64_t queries = 0;  // spans recorded (served attempts)
  int64_t total_response_ticks = 0;
  std::array<int64_t, obs::kNumSpanComponents> component_ticks{};
  double mean_response_seconds = 0.0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double goodput_per_second = 0.0;
  uint64_t slo_alerts_fired = 0;
  uint64_t slo_bad_windows = 0;
  bool slo_burned_through = false;
};

// Shared mean derivation — predicted and measured objectives go through
// this same expression so the interference-free case is bit-exact.
double MeanSecondsFromTicks(double total_ticks, uint64_t queries);

// First-order component scale factor g(δ): how the knob's linear span
// model scales component `component` under delta. 1.0 for untouched
// components; behavioral knobs (timeout, cooldown, admission, slo-window)
// scale nothing — their prediction is the base objective and the error
// column measures the behavioral sensitivity.
double ComponentScale(Knob knob, double delta, size_t component);

// The analytic prediction: scale the base run's component totals by g(δ)
// and recompute the mean objective closed-form. No rerun.
double PredictedMeanSeconds(const Measurement& base, Knob knob, double delta);

struct ExperimentResult {
  Knob knob = Knob::kServiceRate;
  double delta = 0.0;
  double predicted_mean_seconds = 0.0;
  double measured_mean_seconds = 0.0;
  double error_seconds = 0.0;         // predicted - measured
  double gain_seconds = 0.0;          // base - measured (positive: faster)
  double gain_per_unit_delta = 0.0;   // gain / |delta|
  Measurement measured;
};

// Per-knob ranking entry: the knob's best marginal objective gain per
// unit of virtual speedup across its delta grid.
struct KnobRank {
  Knob knob = Knob::kServiceRate;
  double best_delta = 0.0;
  double best_gain_per_unit = 0.0;
};

struct Report {
  bool evaluate_slo = false;
  Measurement base;
  std::vector<ExperimentResult> experiments;
  std::vector<KnobRank> ranking;  // descending best_gain_per_unit

  // max over experiments of gain/base_mean; 0 with no experiments or a
  // degenerate base. The `--require-gain` exit-7 contract tests this.
  double BestRelativeGain() const;
};

// Runs base + every planned experiment (same scenario seed, perturbed
// config) in parallel on `pool` (nullptr: the shared global pool), each
// item writing its own slot, and assembles the merged report in plan
// order. Masks the global ObsSession for the duration. Byte-identical
// results for any pool size.
Report RunWhatif(const Scenario& scenario, const Plan& plan,
                 ThreadPool* pool = nullptr);

// Byte-stable text report: `#` human table + ranking, then machine lines
// in the metrics export grammar (counter/gauge) so `msprint obs-diff` can
// gate two whatif reports like any other export.
std::string FormatReport(const Report& report);

// One JSON object per line: the base, then every experiment in order.
std::string FormatReportJsonl(const Report& report);

// ---- bit-exact persistence (persist record container; fail-closed) ----

// Sealed record bytes <-> report. Derived columns (predicted, error,
// gains, ranking) are recomputed on parse from the stored measurements —
// the same arithmetic, so a round trip reformats byte-identically.
std::string SerializeReport(const Report& report);
Report ParseReport(const std::string& bytes);  // throws persist::PersistError

void SaveReportToFile(const std::string& path, const Report& report);
Report LoadReportFromFile(const std::string& path);

}  // namespace whatif
}  // namespace msprint

#endif  // MSPRINT_SRC_OBS_WHATIF_WHATIF_H_
