#include "src/testbed/testbed.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/core/serve_loop.h"

namespace msprint {

namespace {

// Load-dependent dispatch overhead: a busy server pays scheduler and cache
// pressure costs that grow (sub-linearly, capped) with queue depth. This is
// one of the runtime dynamics invisible to the predictive simulator.
// Kept small enough that the highest profiled utilization (95%) remains a
// stable queue: 0.95 * (1 + 0.0015 * 10) < 1.
constexpr double kLoadOverheadPerQueuedQuery = 0.0015;
constexpr size_t kLoadOverheadCap = 10;

double LoadOverheadFactor(size_t queue_length) {
  return 1.0 + kLoadOverheadPerQueuedQuery *
                   static_cast<double>(std::min(queue_length,
                                                kLoadOverheadCap));
}

// Adds the run's injected faults to the fault/ counters, once per kind
// and only when non-zero. Flash crowds are windows, not counted events.
void CountFaults(const FaultTrace& trace) {
  size_t counts[std::size(kAllFaultKinds)] = {};
  for (const FaultEvent& event : trace) {
    ++counts[static_cast<size_t>(event.kind)];
  }
  static constexpr std::pair<FaultKind, const char*> kCounters[] = {
      {FaultKind::kToggleFailure, "fault/toggle_failures"},
      {FaultKind::kServiceOutlier, "fault/service_outliers"},
      {FaultKind::kBreakerTrip, "fault/breaker_trips"},
      {FaultKind::kSprintAbort, "fault/sprint_aborts"}};
  for (const auto& [kind, name] : kCounters) {
    if (const size_t n = counts[static_cast<size_t>(kind)]; n > 0) {
      obs::Count(name, n);
    }
  }
}

// The testbed's own events, numbered after the serve loop's.
enum TestbedEvent : uint32_t { kBreakerTrip = kServeModelEvents, kAbandon };

// Per-workload constants, filled on the workload's first draw: pure
// functions of (config, workload id), so caching them is bit-exact.
struct WorkloadCache {
  const WorkloadSpec* spec = nullptr;
  double mean_service = 0.0;
  std::optional<LognormalDistribution> jitter;
  std::array<double, obs::kMaxSpanPhases> phase_fractions{};
  size_t num_phases = 0;
};

// The testbed's own state for one attempt, beside its Query record (whose
// queue-manager fields live in the loop's columns until Finish).
struct AttemptState {
  // Sustained duration with load overhead and faults, set at dispatch; its
  // factors and the toggle latency paid let spans decompose it exactly.
  double effective_service = 0.0;
  double load_factor = 1.0;
  double fault_multiplier = 1.0;
  double toggle_seconds = 0.0;
  // Breaker-abort bookkeeping: sustained-rate work left when the sprint
  // engaged, and whether a trip aborted it.
  double sustained_remaining_at_sprint = 0.0;
  bool sprint_aborted = false;
};

// The ground truth's service model: phase-aware sprint speedup, toggle
// latency, load overhead, faults with breaker aborts, client retries and
// abandonment, and flight-recorder events (serial code stamped with
// simulated time, so recording keeps the determinism contract).
class TestbedServer : public ServeLoop<TestbedServer> {
 public:
  explicit TestbedServer(const TestbedConfig& config)
      : ServeLoop(Params(config)),
        config_(config),
        mechanism_(MakePolicyMechanism(config.policy)),
        toggle_latency_(mechanism_->ToggleLatencySeconds() *
                        config.toggle_latency_scale),
        // The horizon depends on the config alone, not on the sampled
        // arrivals, so the schedule is reproducible.
        plan_(FaultPlan::Generate(config.faults, config.seed,
                                  2.0 * static_cast<double>(params_.queries) /
                                          params_.arrival_rate_per_second +
                                      1000.0)),
        injector_(&plan_),
        retry_(config.retry, DeriveSeed(config.seed, 0x4E712Au)),
        // Handles looked up once per run, not per query.
        metrics_(obs::ActiveMetrics()),
        h_queue_depth_(Histogram("testbed/queue_depth_at_dispatch")) {
    for (const TimeWindow& window : plan_.flash_crowd_windows()) {
      obs::Emit(window.begin, obs::EventKind::kFlashCrowd,
                obs::Subsystem::kFault, obs::Severity::kInfo, 0,
                config.faults.flash_crowd_intensity,
                window.end - window.begin);
    }
    Generate();
  }

  // ---- service model hooks (see src/core/serve_loop.h) ----

  void OnStart() {
    if (!config_.force_full_sprint && !config_.disable_sprinting) {
      for (const TimeWindow& window : plan_.breaker_windows()) {
        events_.Push(window.begin, kBreakerTrip, 0, 0);
      }
    }
  }

  double BeginService(size_t q, double now, size_t queued) {
    AttemptState& a = state_[q];
    if (h_queue_depth_ != nullptr) {
      h_queue_depth_->Record(static_cast<double>(queued));
    }
    // Same association order as `service * load * fault` so the span
    // sweep's counterfactual milestones reproduce this double exactly.
    a.load_factor = LoadOverheadFactor(queued);
    a.fault_multiplier = injector_.ServiceMultiplier(q, now);
    a.effective_service =
        queries_[q].service_time * a.load_factor * a.fault_multiplier;
    return a.effective_service;
  }

  bool full_sprint() const { return config_.force_full_sprint; }

  double EngageSprint(size_t q, double now, SprintStart from) {
    AttemptState& a = state_[q];
    double progress = 0.0;
    double toggle = 0.0;
    // Marginal-rate profiling engages the mechanism before dispatch, so no
    // toggle cost is paid; a toggle during dispatch is cheaper than one
    // mid-flight, but not free.
    if (from != SprintStart::kFull) {
      obs::Emit(now, obs::EventKind::kSprintEngage, obs::Subsystem::kTestbed,
                obs::Severity::kInfo, q, a.effective_service);
      const bool mid_flight = from == SprintStart::kTimeout;
      progress = mid_flight ? (now - start_[q]) / a.effective_service : 0.0;
      toggle = mid_flight ? toggle_latency_ : 0.5 * toggle_latency_;
      a.sustained_remaining_at_sprint =
          (1.0 - std::clamp(progress, 0.0, 1.0)) * a.effective_service;
      a.toggle_seconds = toggle;
    }
    const WorkloadCache& cached =
        cache_[static_cast<size_t>(queries_[q].workload)];
    return toggle + SprintedRemaining(*cached.spec, progress,
                                      a.effective_service);
  }

  bool LockedOut(double now) {
    const bool active = injector_.BreakerActive(now);
    lockout_denials_ += active;
    return active;
  }

  bool ToggleFails(size_t q, double now) {
    if (!injector_.SprintToggleFails(q, now)) {
      return false;
    }
    obs::Emit(now, obs::EventKind::kToggleFailure, obs::Subsystem::kFault,
              obs::Severity::kWarn, q);
    return true;
  }

  // Aborted sprints were already debited when the breaker tripped.
  bool sprint_aborted(size_t q) const { return state_[q].sprint_aborted; }

  bool served(size_t q) const { return !queries_[q].abandoned; }

  void OnQueued(size_t q, double now) {
    obs::Emit(now, obs::EventKind::kQueueArrival, obs::Subsystem::kTestbed,
              obs::Severity::kDebug, q, static_cast<double>(queued()));
    if (retry_.enabled() && config_.retry.abandon_wait_seconds > 0.0) {
      events_.Push(now + config_.retry.abandon_wait_seconds, kAbandon, q, 0);
    }
  }

  void OnShed(size_t q, double now) {
    obs::Emit(now, obs::EventKind::kQueryShed, obs::Subsystem::kTestbed,
              obs::Severity::kWarn, q, static_cast<double>(queued()));
  }

  void AfterShed(size_t q, double now) {
    if (retry_.enabled()) {  // the client may retry
      SpawnRetry(q, now);
    }
  }

  void OnTimeout(size_t q, double now) {
    obs::Emit(now, obs::EventKind::kQueryTimeout, obs::Subsystem::kTestbed,
              obs::Severity::kDebug, q, params_.timeout_seconds);
  }

  void OnDeparted(size_t q, double now) {
    if (retry_.enabled() && served(q)) {
      retry_.OnSuccess(queries_[q].request_id);
    }
    obs::Emit(now, obs::EventKind::kQueueDeparture, obs::Subsystem::kTestbed,
              obs::Severity::kDebug, q, depart_[q] - arrival_[q]);
  }

  void OnModelEvent(uint32_t type, size_t q, double now) {
    if (type == kBreakerTrip) {
      injector_.RecordBreakerTrip(now, config_.faults.breaker_cooldown_seconds);
      obs::Emit(now, obs::EventKind::kBreakerTrip, obs::Subsystem::kFault,
                obs::Severity::kWarn, 0,
                config_.faults.breaker_cooldown_seconds);
      AbortInflightSprints(now);
      return;
    }
    // kAbandon: moot once dispatched (or already off the queue).
    Query& query = queries_[q];
    if (start_[q] >= 0.0 || shed_[q] || query.abandoned) {
      return;
    }
    // The client gives up waiting and may retry; the server cannot tell,
    // so the stale attempt stays queued and its eventual service is pure
    // badput — the metastable amplification loop.
    query.abandoned = true;
    obs::Emit(now, obs::EventKind::kQueryAbandon, obs::Subsystem::kTestbed,
              obs::Severity::kWarn, q, now - arrival_[q]);
    SpawnRetry(q, now);
  }

  RunTrace Finish();

 private:
  static ServeParams Params(const TestbedConfig& config) {
    if (!(std::isfinite(config.utilization) && config.utilization > 0.0) ||
        !(std::isfinite(config.sprint_boost) && config.sprint_boost >= 0.0)) {
      throw std::invalid_argument(
          "TestbedConfig: utilization must be finite and positive, "
          "sprint_boost finite and non-negative");
    }
    ServeParams params;
    params.queries = config.num_queries;
    // Retries append attempt records past the originals: every logical
    // request spawns at most max_attempts of them.
    params.capacity = config.num_queries *
                      (config.retry.enabled
                           ? std::max<size_t>(1, config.retry.max_attempts)
                           : 1);
    params.slots = config.slots;
    // Arrival rate as a fraction of the mix's sustained service rate.
    params.arrival_rate_per_second =
        config.utilization *
        Testbed::SustainedRatePerSecond(config.mix, config.policy);
    params.service_time_scale = config.service_time_scale;
    params.timeout_seconds = config.disable_sprinting
                                 ? std::numeric_limits<double>::infinity()
                                 : config.policy.timeout_seconds;
    params.budget_capacity_seconds = config.policy.BudgetCapacitySeconds();
    params.budget_refill_seconds = config.policy.refill_seconds;
    params.admission = config.admission;
    params.slo = config.slo_sink;
    params.unset_time = -1.0;
    return params;
  }

  obs::Histogram* Histogram(const char* name) const {
    return metrics_ != nullptr ? &metrics_->GetHistogram(name) : nullptr;
  }

  // Draws the query stream: workloads, arrivals, service times.
  void Generate() {
    Rng rng(config_.seed);
    rng.EnableBatchedDraws();  // same draws, amortized refills
    const auto interarrival = MakeDistribution(
        config_.arrival_kind, 1.0 / params_.arrival_rate_per_second);
    queries_.resize(params_.queries);
    queries_.reserve(params_.capacity);  // retries never reallocate
    state_.resize(params_.capacity);
    double t = 0.0;
    for (size_t i = 0; i < params_.queries; ++i) {
      Query& q = queries_[i];
      q.id = i;
      q.request_id = i;
      q.workload = config_.mix.SampleWorkload(rng);
      // Flash crowds compress interarrival gaps by the crowd intensity.
      t += interarrival->Sample(rng) / plan_.ArrivalIntensityAt(t);
      arrival_[i] = t;
      WorkloadCache& cached = cache_[static_cast<size_t>(q.workload)];
      if (cached.spec == nullptr) {
        cached.spec = &WorkloadCatalog::Get().spec(q.workload);
        cached.mean_service =
            config_.mix.MemberMeanServiceSeconds(q.workload) *
            mechanism_->SustainedServiceMultiplier(*cached.spec);
        cached.jitter.emplace(cached.mean_service,
                              std::max(0.05, cached.spec->service_cov));
        cached.num_phases =
            std::min(cached.spec->phases.size(), obs::kMaxSpanPhases);
        for (size_t p = 0; p < cached.num_phases; ++p) {
          cached.phase_fractions[p] = cached.spec->phases[p].work_fraction;
        }
      }
      q.service_time = std::max(1e-6, cached.jitter->Sample(rng)) *
                       config_.service_time_scale;
      q.size = q.service_time / cached.mean_service;
    }
  }

  // Sprinted remaining time with the sprint_boost hook applied: the time
  // a sprint saves (sustained remaining minus the mechanism's sprinted
  // remaining) is scaled by the boost. Gated on != 1.0 because
  // `a - (a - b)` is not bitwise `b` in floating point.
  double SprintedRemaining(const WorkloadSpec& spec, double progress,
                           double sustained_total) const {
    double remaining = Testbed::SprintedRemainingSeconds(
        spec, *mechanism_, progress, sustained_total);
    if (config_.sprint_boost != 1.0) {
      const double sustained_remaining =
          (1.0 - std::clamp(progress, 0.0, 1.0)) * sustained_total;
      remaining = std::max(
          0.0, sustained_remaining -
                   (sustained_remaining - remaining) * config_.sprint_boost);
    }
    return remaining;
  }

  // Consults the retry model after attempt `q` failed (shed or abandoned)
  // and, unless it gives up, appends the request's next attempt.
  void SpawnRetry(size_t q, double now) {
    // Recent shed pressure feeds the retry model's adaptive throttle.
    const size_t decided =
        admission_.admitted_count() + admission_.shed_count();
    const double shed_fraction =
        decided == 0 ? 0.0
                     : static_cast<double>(admission_.shed_count()) /
                           static_cast<double>(decided);
    const Query& failed = queries_[q];
    const double delay = retry_.NextRetryDelay(failed.request_id,
                                               failed.attempt, shed_fraction);
    if (delay < 0.0) {
      return;
    }
    // The client retries the same work; the attempt's outcome is new.
    Query next = failed;
    next.abandoned = false;
    next.attempt = failed.attempt + 1;
    next.first_arrival =
        failed.first_arrival >= 0.0 ? failed.first_arrival : arrival_[q];
    next.id = AddAttempt(now + delay);
    queries_.push_back(next);  // never reallocates: capacity reserved
    obs::Emit(now, obs::EventKind::kQueryRetry, obs::Subsystem::kTestbed,
              obs::Severity::kInfo, next.id, delay);
  }

  // A breaker trip aborts every in-flight sprint: the mechanism powers
  // down immediately (full mid-flight toggle latency) and the remaining
  // work finishes at the sustained rate. Remaining work is prorated by the
  // fraction of the sprinted stretch already elapsed.
  void AbortInflightSprints(double now) {
    for (size_t q = 0; q < count(); ++q) {
      AttemptState& a = state_[q];
      if (!sprinted_[q] || a.sprint_aborted || depart_[q] <= now) {
        continue;
      }
      const double elapsed = now - sprint_begin_[q];
      const double sprint_total = depart_[q] - sprint_begin_[q];
      const double done_fraction =
          sprint_total > 0.0 ? std::clamp(elapsed / sprint_total, 0.0, 1.0)
                             : 1.0;
      const double remaining_sustained =
          (1.0 - done_fraction) * a.sustained_remaining_at_sprint;
      a.sprint_aborted = true;
      sprint_seconds_[q] = elapsed;
      a.toggle_seconds += toggle_latency_;
      budget_.ConsumeAllowingDebt(now, elapsed);
      Schedule(q, now + toggle_latency_ + remaining_sustained);
      injector_.RecordSprintAbort(q, now);
      obs::Emit(now, obs::EventKind::kSprintAbort, obs::Subsystem::kTestbed,
                obs::Severity::kWarn, q, elapsed);
      if (params_.slo != nullptr) {
        params_.slo->OnSprintAbort(now);
      }
    }
  }

  const TestbedConfig& config_;
  const std::unique_ptr<SprintMechanism> mechanism_;
  const double toggle_latency_;  // whatif-scaled; 1.0 is a bitwise identity
  const FaultPlan plan_;
  FaultInjector injector_;
  // Client retries: a serial deterministic state machine (DESIGN.md §14).
  robust::RetryModel retry_;
  obs::MetricsRegistry* const metrics_;
  obs::Histogram* const h_queue_depth_;
  std::array<WorkloadCache, 16> cache_;  // indexed by WorkloadId value
  std::vector<Query> queries_;  // every attempt's record, retries appended
  std::vector<AttemptState> state_;
  size_t lockout_denials_ = 0;
};

}  // namespace

std::vector<double> RunTrace::ResponseTimes() const {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const auto& q : queries) {
    out.push_back(q.ResponseTime());
  }
  return out;
}

double RunTrace::MedianResponseTime() const { return Median(ResponseTimes()); }

double RunTrace::PercentileResponseTime(double q) const {
  return QuantileOrZero(ResponseTimes(), q);
}

double Testbed::SustainedRatePerSecond(const QueryMix& mix,
                                       const SprintPolicy& policy) {
  const auto mechanism = MakePolicyMechanism(policy);
  const auto& catalog = WorkloadCatalog::Get();
  double total_weight = 0.0;
  double weighted_service = 0.0;
  for (const auto& component : mix.components()) {
    const auto& spec = catalog.spec(component.workload);
    weighted_service += component.weight *
                        mix.MemberMeanServiceSeconds(component.workload) *
                        mechanism->SustainedServiceMultiplier(spec);
    total_weight += component.weight;
  }
  return total_weight / weighted_service;
}

double Testbed::SprintedRemainingSeconds(const WorkloadSpec& spec,
                                         const SprintMechanism& mechanism,
                                         double progress,
                                         double sustained_total) {
  progress = std::clamp(progress, 0.0, 1.0);
  double remaining = 0.0;
  double phase_start = 0.0;
  for (const auto& phase : spec.phases) {
    const double phase_end = phase_start + phase.work_fraction;
    if (phase_end > progress) {
      const double begin = std::max(phase_start, progress);
      const double work = phase_end - begin;  // fraction of total work
      // Instantaneous speedup is constant within a phase; query the curve
      // at the phase midpoint of the remaining stretch.
      const double tau = 0.5 * (begin + phase_end);
      const double speedup = mechanism.InstantSpeedup(spec, std::min(tau,
                                                                     0.999));
      remaining += work * sustained_total / speedup;
    }
    phase_start = phase_end;
  }
  return remaining;
}

RunTrace TestbedServer::Finish() {
  // Aggregate post-warmup. The slice covers every attempt spawned at or
  // after the first post-warmup original — including shed and abandoned
  // attempts and every retry (retries always append past index n).
  const size_t n = params_.queries;
  const size_t first = std::min(config_.warmup_queries, n);
  RunTrace trace;
  for (size_t q = first; q < count(); ++q) {
    Query& out = queries_[q];
    out.arrival = arrival_[q];
    out.start = start_[q];
    out.depart = depart_[q];
    out.timed_out = timed_out_[q] != 0;
    out.sprinted = sprinted_[q] != 0;
    out.shed = shed_[q] != 0;
    out.sprint_begin = sprint_begin_[q];
    out.sprint_seconds = sprint_seconds_[q];
  }

  obs::Histogram* h_response = Histogram("testbed/response_time_seconds");
  obs::Histogram* h_queueing = Histogram("testbed/queueing_delay_seconds");
  obs::Histogram* h_processing = Histogram("testbed/processing_time_seconds");
  StreamingStats processing, unsprinted;
  // Which post-warmup logical requests had a client-successful attempt.
  std::vector<uint8_t> request_good(n - first, 0);
  const ServeCounts counts = Summarize(first, trace, [&](size_t q) {
    const Query& query = queries_[q];
    if (query.abandoned) {
      ++trace.abandoned_count;
    } else {
      ++trace.served_count;
      if (query.request_id >= first && query.request_id < n) {
        request_good[query.request_id - first] = 1;
      }
    }
    const double processing_time = depart_[q] - start_[q];
    processing.Add(processing_time);
    if (h_response != nullptr) {
      h_response->Record(depart_[q] - arrival_[q]);
      h_queueing->Record(start_[q] - arrival_[q]);
      h_processing->Record(processing_time);
    }
    if (!sprinted_[q]) {
      unsprinted.Add(processing_time);
    }
  });
  trace.retry_count = count() - n;  // every attempt past the originals
  for (const uint8_t good : request_good) {
    ++(good ? trace.goodput_count : trace.badput_count);
  }
  trace.mean_processing_time = processing.mean();
  trace.mean_unsprinted_processing_time =
      unsprinted.count() > 0 ? unsprinted.mean() : processing.mean();
  trace.goodput_per_second =
      trace.makespan > 0.0 ? trace.goodput_count / trace.makespan : 0.0;
  trace.fault_trace = injector_.TakeTrace();

  obs::Count("testbed/runs");
  obs::Count("testbed/queries", count() - first);
  obs::Count("testbed/sprinted", counts.sprinted);
  obs::Count("testbed/timed_out", counts.timed_out);
  if (lockout_denials_ > 0) {
    obs::Count("fault/breaker_lockout_denials", lockout_denials_);
  }
  CountFaults(trace.fault_trace);
  if (config_.admission.Enabled() || config_.retry.enabled) {
    obs::Count("robust/shed", trace.shed_count);
    obs::Count("robust/abandoned", trace.abandoned_count);
    obs::Count("robust/retries", trace.retry_count);
    obs::Count("robust/goodput", trace.goodput_count);
    obs::Count("robust/badput", trace.badput_count);
    obs::Count("robust/retries_exhausted", retry_.retries_exhausted());
    obs::Count("robust/retries_throttled", retry_.retries_throttled());
  }

  // Span sweep: when a collector is attached, decompose every post-warmup
  // query (the same slice as trace.queries, in id order) into exact causal
  // components, in one batch.
  RecordSpans(config_.span_sink, first, [&](size_t q, obs::SpanInputs& in) {
    const Query& query = queries_[q];
    const AttemptState& a = state_[q];
    const WorkloadCache& cached = cache_[static_cast<size_t>(query.workload)];
    in.klass = static_cast<uint32_t>(query.workload);
    in.service_time = query.service_time;
    in.load_factor = a.load_factor;
    in.fault_multiplier = a.fault_multiplier;
    in.toggle_seconds = a.toggle_seconds;
    in.first_arrival = query.first_arrival;
    in.sprint_aborted = a.sprint_aborted;
    in.phase_fractions = cached.phase_fractions.data();
    in.num_phases = cached.num_phases;
  });
  trace.queries = std::move(queries_);
  trace.queries.erase(trace.queries.begin(),
                      trace.queries.begin() + static_cast<long>(first));
  return trace;
}

RunTrace Testbed::Run(const TestbedConfig& config) {
  TestbedServer server(config);
  server.Run();
  return server.Finish();
}

}  // namespace msprint
