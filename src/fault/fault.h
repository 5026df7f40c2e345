// Deterministic fault injection for the sprinting testbed.
//
// The paper's premise is that sprinting hardware misbehaves in ways a clean
// first-principles model misses (Section 2.3's "unaccounted runtime
// factors"); production adds mid-sprint breaker trips and stale models on
// top. This module makes those adverse conditions
// first-class citizens of the simulator: a FaultPlan is derived entirely
// from a 64-bit seed, so any run — and any fault storm — replays
// byte-identically, preserving the library-wide invariant
// *same seed => same output for any pool size*.
//
// Fault kinds:
//   * sprint-toggle failures    — the mechanism fails to engage; the query
//                                 runs unsprinted;
//   * circuit-breaker trips     — in-flight sprints abort mid-execution and
//                                 sprinting is locked out for a cooldown
//                                 window (a power/thermal cap firing);
//   * service-time outliers     — GC-pause-style stalls inflating one
//                                 query's execution;
//   * arrival flash crowds      — windows of multiplied arrival intensity.
//
// Determinism structure: window faults (breaker trips, flash crowds) are a
// Poisson process drawn from dedicated DeriveSeed streams over the run
// horizon; per-query faults are drawn from a fresh stream derived from the
// query index, so decisions are stateless — the i-th query's faults do not
// depend on how many other queries were inspected, or in what order.

#ifndef MSPRINT_SRC_FAULT_FAULT_H_
#define MSPRINT_SRC_FAULT_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace msprint {

enum class FaultKind {
  kToggleFailure,
  kBreakerTrip,
  kSprintAbort,
  kServiceOutlier,
  kFlashCrowd,
};

inline constexpr FaultKind kAllFaultKinds[] = {
    FaultKind::kToggleFailure, FaultKind::kBreakerTrip,
    FaultKind::kSprintAbort, FaultKind::kServiceOutlier,
    FaultKind::kFlashCrowd};

std::string ToString(FaultKind kind);

struct TimeWindow {
  double begin = 0.0;
  double end = 0.0;
};

// Knobs for one run's fault schedule. All rates/probabilities default to
// zero: a default-constructed config injects nothing and the testbed takes
// its original fault-free path.
struct FaultPlanConfig {
  // Seed for the fault streams; 0 derives one from the run seed, so the
  // same workload seed always sees the same storm, while an explicit value
  // replays one storm against different workloads.
  uint64_t seed = 0;

  // Probability that engaging the sprint mechanism fails for a query.
  double toggle_failure_probability = 0.0;

  // Breaker trips as a Poisson process (mean trips per simulated hour).
  // Each trip aborts in-flight sprints and locks out sprinting until
  // `breaker_cooldown_seconds` elapse.
  double breaker_trips_per_hour = 0.0;
  double breaker_cooldown_seconds = 120.0;

  // Probability that a query's execution hits a stall, multiplying its
  // service time by `outlier_multiplier`.
  double outlier_probability = 0.0;
  double outlier_multiplier = 8.0;

  // Flash crowds as a Poisson process: inside a crowd window, arrival
  // intensity is multiplied by `flash_crowd_intensity`.
  double flash_crowds_per_hour = 0.0;
  double flash_crowd_duration_seconds = 60.0;
  double flash_crowd_intensity = 3.0;

  // Explicitly scheduled windows, merged (in begin order) with the Poisson
  // draws above. These make metastable-failure scenarios scriptable: a
  // storm preset pins a flash crowd at t=300s and a breaker trip inside it
  // instead of waiting for the dice to line up (DESIGN.md §14). Each
  // window must satisfy 0 <= begin <= end.
  std::vector<TimeWindow> scheduled_breaker_trips;
  std::vector<TimeWindow> scheduled_flash_crowds;

  bool Enabled() const;
};

// One fault that actually fired during a run.
struct FaultEvent {
  static constexpr uint64_t kNoQuery = ~0ULL;

  double time = 0.0;
  FaultKind kind = FaultKind::kToggleFailure;
  uint64_t query = kNoQuery;  // kNoQuery for window faults
  double detail = 0.0;        // kind-specific: multiplier, cooldown
};

using FaultTrace = std::vector<FaultEvent>;

// Byte-stable rendering of a trace (one line per event), used to pin
// determinism in tests and to diff replays from the CLI.
std::string FormatFaultTrace(const FaultTrace& trace);

// Per-query fault decisions.
struct QueryFaults {
  bool toggle_fails = false;
  double service_multiplier = 1.0;
};

// The deterministic schedule: window faults materialized up front,
// per-query faults derivable on demand.
class FaultPlan {
 public:
  // Generates the schedule for a run. Window faults cover
  // [0, horizon_seconds]; `run_seed` feeds the derivation only when
  // config.seed is 0.
  static FaultPlan Generate(const FaultPlanConfig& config, uint64_t run_seed,
                            double horizon_seconds);

  bool enabled() const { return config_.Enabled(); }
  const FaultPlanConfig& config() const { return config_; }

  // Stateless per-query decisions: same index => same faults, regardless
  // of evaluation order or count.
  QueryFaults ForQuery(uint64_t query_index) const;

  // Breaker lockout windows [trip, trip + cooldown), in trip order.
  const std::vector<TimeWindow>& breaker_windows() const {
    return breaker_windows_;
  }
  const std::vector<TimeWindow>& flash_crowd_windows() const {
    return crowd_windows_;
  }

  bool BreakerActiveAt(double t) const;

  // Arrival-intensity multiplier at time t (1 outside crowd windows).
  double ArrivalIntensityAt(double t) const;

 private:
  FaultPlanConfig config_;
  uint64_t per_query_seed_ = 0;
  std::vector<TimeWindow> breaker_windows_;
  std::vector<TimeWindow> crowd_windows_;
};

// Runtime companion consulted by the (single-threaded) testbed run loop;
// records the faults that actually fire, in simulated-time order.
class FaultInjector {
 public:
  // `plan` may be null (no faults); it must outlive the injector.
  explicit FaultInjector(const FaultPlan* plan) : plan_(plan) {}

  bool enabled() const { return plan_ != nullptr && plan_->enabled(); }

  // True when `query`'s sprint toggle fails; records the fault.
  bool SprintToggleFails(uint64_t query, double now);

  // True while a breaker lockout window covers `now` — either one scheduled
  // by the plan or one forced via ForceBreakerLockout.
  bool BreakerActive(double now) const;

  // Opens an unscheduled lockout window [now, now + cooldown_seconds) and
  // records the trip, independent of any plan (works with a null plan too).
  // The model checker (src/mc) uses this to trip the breaker at
  // nondeterministically chosen instants; overlapping calls extend the
  // window. Non-finite or negative cooldowns are ignored.
  void ForceBreakerLockout(double now, double cooldown_seconds);

  // End of the forced lockout window (0 when never forced). Exposed so
  // the model checker can snapshot/restore the lockout state bit-exactly.
  double forced_lockout_until() const { return forced_lockout_until_; }

  // Service-time multiplier for `query` (records outliers > 1).
  double ServiceMultiplier(uint64_t query, double now);

  void RecordBreakerTrip(double now, double cooldown_seconds);
  void RecordSprintAbort(uint64_t query, double now);

  const FaultTrace& trace() const { return trace_; }
  FaultTrace TakeTrace() { return std::move(trace_); }

 private:
  const FaultPlan* plan_;
  FaultTrace trace_;
  double forced_lockout_until_ = 0.0;
};

}  // namespace msprint

#endif  // MSPRINT_SRC_FAULT_FAULT_H_
