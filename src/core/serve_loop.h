// The queue manager shared by the predictive simulator and the testbed.
//
// The hybrid model rests on both engines running the same queue manager
// (Figure 3): FIFO order, per-query timestamps, a timeout interrupt
// counted from arrival, and a budget that gates each sprint on a positive
// level and is debited with the time actually sprinted. The engines differ
// only in how a sprint speeds up the remaining work; that gap is what the
// forest learns as the effective sprint rate. ServeLoop owns the shared
// part: per-attempt columns in one arena block, the event loop and FIFO
// ring, stale-event checks, timeout interrupts, the budget, admission, SLO
// feeds, dispatch, the shared statistics and the span inputs. Each engine
// derives its service model from ServeLoop<Model> (CRTP), so hooks resolve
// at compile time and the simulator carries none of the testbed's branches.
//
// Hooks (BeginService and EngageSprint are required; the defaults describe
// a server whose sprints always start and whose responses are all good):
//   BeginService(q, now, queued)  sustained duration of q dispatched now
//   EngageSprint(q, now, from)    time to departure once q sprints from now
//   full_sprint()                 every dispatch sprints, never debited
//   LockedOut(now), ToggleFails(q, now)  vetoes around the budget gate
//   sprint_aborted(q), served(q)  q's sprint was debited; q's response good
//   OnStart(), OnModelEvent(type, q, now)  the model's own events
//   OnQueued, OnShed, AfterShed, OnTimeout, OnDeparted (q, now)
// Notification hooks and EngageSprint run before the loop feeds the same
// event to the SLO pipeline, so a model's flight-recorder event precedes
// any SLO alert the feed closes; AfterShed runs after it. One loop per run.

#ifndef MSPRINT_SRC_CORE_SERVE_LOOP_H_
#define MSPRINT_SRC_CORE_SERVE_LOOP_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/core/event_queue.h"
#include "src/core/run_arena.h"
#include "src/obs/obs.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/robust/admission.h"
#include "src/sprint/budget.h"

namespace msprint {

// Event codes the loop handles itself. A model numbers its own events
// from kServeModelEvents up; the queue key holds 3-bit codes.
enum ServeEvent : uint32_t {
  kServeArrival,
  kServeDeparture,
  kServeTimeout,
  kServeModelEvents,
};

// Where an engaged sprint begins: before dispatch (full-sprint profiling),
// at dispatch (the timeout fired while the query waited), or at the
// timeout interrupt mid-flight.
enum class SprintStart { kFull, kDispatch, kTimeout };

// What a run of the queue manager needs besides its service model.
struct ServeParams {
  size_t queries = 0;   // pre-generated original arrivals
  size_t capacity = 0;  // attempt records; retries append past `queries`
  int slots = 1;
  double arrival_rate_per_second = 0.0;
  double service_time_scale = 1.0;
  double timeout_seconds = 0.0;  // +inf: never interrupt
  double budget_capacity_seconds = 0.0;
  double budget_refill_seconds = 1.0;
  robust::AdmissionConfig admission;
  obs::SloPipeline* slo = nullptr;
  double unset_time = 0.0;  // start/depart of attempts never dispatched
  size_t model_bytes = 0;   // arena bytes the model allocates for itself
};

// Post-warmup counts the engines export next to their result structs.
struct ServeCounts {
  size_t sprinted = 0;
  size_t timed_out = 0;
};

template <typename Model>
class ServeLoop {
 public:
  // Runs until every attempt has departed or been shed, then adds the
  // run's budget overdraws to the active metrics registry.
  void Run() {
    events_.Push(arrival_[0], kServeArrival, 0, 0);
    model().OnStart();
    // Once every attempt resolved, only stale or model events can remain;
    // they have nothing left to act on.
    while (resolved_ < count_ && !events_.empty()) {
      const EventRecord ev = events_.PopMin();
      const double now = ev.time();
      const size_t q = static_cast<size_t>(ev.query);
      switch (ev.type()) {
        case kServeArrival:
          Arrive(q, now);
          break;
        case kServeDeparture:
          if (stamps_[q] == ev.stamp) {  // else superseded by a reschedule
            Depart(q, now);
          }
          break;
        case kServeTimeout:
          Interrupt(q, ev.stamp, now);
          break;
        default:
          model().OnModelEvent(ev.type(), q, now);
          break;
      }
      while (free_slots_ > 0 && fifo_head_ != fifo_tail_) {
        const size_t next = fifo_[fifo_head_++];
        --free_slots_;
        Dispatch(next, std::max(now, arrival_[next]));
      }
    }
    if (budget_.overdraw_count() > 0) {
      obs::Count("sprint/budget_overdraw", budget_.overdraw_count());
    }
  }

  // Default hooks; see the header comment.
  static constexpr bool full_sprint() { return false; }
  static constexpr bool LockedOut(double) { return false; }
  static constexpr bool ToggleFails(size_t, double) { return false; }
  static constexpr bool sprint_aborted(size_t) { return false; }
  static constexpr bool served(size_t) { return true; }
  void OnStart() {}
  void OnQueued(size_t, double) {}
  void OnShed(size_t, double) {}
  void AfterShed(size_t, double) {}
  void OnTimeout(size_t, double) {}
  void OnDeparted(size_t, double) {}
  void OnModelEvent(uint32_t, size_t, double) {}

 protected:
  static constexpr double kBudgetEpsilon = 1e-9;

  explicit ServeLoop(const ServeParams& params)
      : params_(Validated(params)),
        budget_(params.budget_capacity_seconds, params.budget_refill_seconds),
        admission_(params.admission, params.slots),
        events_(/*width_hint=*/1.0 / params.arrival_rate_per_second),
        free_slots_(params.slots),
        count_(params.queries) {
    const size_t n = params.capacity;
    arena_.Reserve(RunArena::BytesFor<double>(n) * 5 +
                   RunArena::BytesFor<uint64_t>(n) +
                   RunArena::BytesFor<uint8_t>(n) * 3 +
                   RunArena::BytesFor<size_t>(n) + params.model_bytes);
    arrival_ = arena_.AllocateUninit<double>(n);  // written on creation
    start_ = arena_.Allocate<double>(n, params.unset_time);
    depart_ = arena_.Allocate<double>(n, params.unset_time);
    sprint_begin_ = arena_.Allocate<double>(n, -1.0);
    sprint_seconds_ = arena_.Allocate<double>(n);
    stamps_ = arena_.Allocate<uint64_t>(n);
    timed_out_ = arena_.Allocate<uint8_t>(n);
    sprinted_ = arena_.Allocate<uint8_t>(n);
    shed_ = arena_.Allocate<uint8_t>(n);
    // Every attempt enqueues at most once, so a monotone index pair over
    // a capacity-sized array is the whole FIFO.
    fifo_ = arena_.AllocateUninit<size_t>(n);
  }

  // Appends a retry attempt arriving at `arrival`; returns its index.
  size_t AddAttempt(double arrival) {
    if (count_ == params_.capacity) {
      throw std::logic_error("ServeLoop: attempt capacity exhausted");
    }
    const size_t q = count_++;
    arrival_[q] = arrival;
    events_.Push(arrival, kServeArrival, q, 0);
    return q;
  }

  // (Re)schedules q's departure; any earlier departure event goes stale.
  void Schedule(size_t q, double when) {
    stamps_[q] = ++stamp_counter_;
    depart_[q] = when;
    events_.Push(when, kServeDeparture, q, stamps_[q]);
  }

  size_t queued() const { return fifo_tail_ - fifo_head_; }
  size_t count() const { return count_; }

  // Fills the result fields both engines report over attempts [first,
  // count()): shed attempts are only counted, each other one also goes to
  // `each`. Then closes the SLO pipeline at the makespan.
  template <typename Result, typename Each>
  ServeCounts Summarize(size_t first, Result& r, Each&& each) const {
    StreamingStats response, queueing;
    ServeCounts counts;
    for (size_t q = first; q < count_; ++q) {
      if (shed_[q]) {
        ++r.shed_count;
        continue;
      }
      response.Add(depart_[q] - arrival_[q]);
      queueing.Add(start_[q] - arrival_[q]);
      if (sprinted_[q]) {
        ++counts.sprinted;
        r.total_sprint_seconds += sprint_seconds_[q];
      }
      if (timed_out_[q]) {
        ++counts.timed_out;
      }
      r.makespan = std::max(r.makespan, depart_[q]);
      each(q);
    }
    const double ran = static_cast<double>(response.count());
    r.mean_response_time = response.mean();
    r.mean_queueing_delay = queueing.mean();
    r.fraction_sprinted = ran > 0.0 ? counts.sprinted / ran : 0.0;
    r.fraction_timed_out = ran > 0.0 ? counts.timed_out / ran : 0.0;
    if (params_.slo != nullptr) {
      params_.slo->Finish(r.makespan);
    }
    return counts;
  }

  // Records a span for every attempt in [first, count()) that ran; `fill`
  // adds the model's decomposition of the service time.
  template <typename Fill>
  void RecordSpans(obs::SpanCollector* sink, size_t first,
                   Fill&& fill) const {
    if (sink == nullptr) {
      return;
    }
    std::vector<obs::SpanInputs> inputs;
    inputs.reserve(count_ - first);
    for (size_t q = first; q < count_; ++q) {
      if (shed_[q]) {
        continue;  // never dispatched: there is no latency to attribute
      }
      obs::SpanInputs in;
      in.id = q;
      in.arrival = arrival_[q];
      in.start = start_[q];
      in.depart = depart_[q];
      in.sprint_begin = sprinted_[q] ? sprint_begin_[q] : -1.0;
      in.sprinted = sprinted_[q] != 0;
      in.timed_out = timed_out_[q] != 0;
      fill(q, in);
      inputs.push_back(in);
    }
    sink->RecordBatch(obs::BuildQuerySpanBatch(inputs));
  }

  const ServeParams params_;
  RunArena arena_;
  SprintBudget budget_;
  robust::AdmissionController admission_;
  EventQueue events_;

  // Per-attempt columns.
  double* arrival_ = nullptr;
  double* start_ = nullptr;
  double* depart_ = nullptr;
  double* sprint_begin_ = nullptr;
  double* sprint_seconds_ = nullptr;
  uint64_t* stamps_ = nullptr;
  uint8_t* timed_out_ = nullptr;
  uint8_t* sprinted_ = nullptr;
  uint8_t* shed_ = nullptr;

 private:
  // The checks every engine's config shares. `x > 0.0` is false for NaN.
  static const ServeParams& Validated(const ServeParams& p) {
    const auto require = [](bool ok, const char* what) {
      if (!ok) {
        throw std::invalid_argument(std::string("serve loop: ") + what);
      }
    };
    require(p.queries > 0 && p.capacity >= p.queries && p.slots >= 1,
            "num_queries and slots must be positive");
    require(std::isfinite(p.arrival_rate_per_second) &&
                p.arrival_rate_per_second > 0.0,
            "arrival rate must be finite and positive");
    require(std::isfinite(p.service_time_scale) && p.service_time_scale > 0.0,
            "service_time_scale must be finite and positive");
    require(!std::isnan(p.timeout_seconds), "timeout must not be NaN");
    return p;
  }

  Model& model() { return static_cast<Model&>(*this); }

  void Arrive(size_t q, double now) {
    // Only original arrivals advance the pre-generated chain; retries
    // were pushed by AddAttempt.
    if (q < params_.queries && ++next_arrival_ < params_.queries) {
      events_.Push(arrival_[next_arrival_], kServeArrival, next_arrival_, 0);
    }
    if (params_.admission.Enabled() &&
        !admission_.Admit(now, queued(), params_.timeout_seconds)) {
      shed_[q] = 1;  // turned away: never enqueues, never runs
      ++resolved_;
      model().OnShed(q, now);
      if (params_.slo != nullptr) {
        params_.slo->OnShed(now);
      }
      model().AfterShed(q, now);
      return;
    }
    fifo_[fifo_tail_++] = q;
    model().OnQueued(q, now);
    if (params_.slo != nullptr) {
      params_.slo->OnArrival(now);
    }
  }

  // A sprint may engage only when the model does not veto it, budget
  // remains, and the toggle succeeds (checked last, so a toggle failure
  // is only recorded for a sprint that would otherwise start).
  bool SprintAllowed(size_t q, double now) {
    return !model().LockedOut(now) &&
           budget_.Available(now) > kBudgetEpsilon &&
           !model().ToggleFails(q, now);
  }

  // Engages q's sprint at `now` and reschedules its departure. The SLO
  // pipeline does not see full-sprint profiling, which is no policy.
  void Engage(size_t q, double now, SprintStart from) {
    const double duration = model().EngageSprint(q, now, from);
    sprinted_[q] = 1;
    sprint_begin_[q] = now;
    if (params_.slo != nullptr && from != SprintStart::kFull) {
      params_.slo->OnSprintEngage(now);
    }
    Schedule(q, now + duration);
  }

  void Dispatch(size_t q, double now) {
    const size_t waiting = queued();
    start_[q] = now;
    if (params_.slo != nullptr) {
      params_.slo->OnQueueDepth(now, static_cast<double>(waiting));
    }
    if (params_.admission.Enabled()) {
      admission_.OnDispatch(now, now - arrival_[q]);  // CoDel sojourn feed
    }
    const double sustained = model().BeginService(q, now, waiting);
    if (model().full_sprint()) {
      timed_out_[q] = 1;  // engaged before dispatch: the whole run sprints
      Engage(q, now, SprintStart::kFull);
      return;
    }
    const double timeout_at = arrival_[q] + params_.timeout_seconds;
    if (timeout_at <= now) {
      timed_out_[q] = 1;
      if (SprintAllowed(q, now)) {
        Engage(q, now, SprintStart::kDispatch);
        return;
      }
    }
    Schedule(q, now + sustained);
    if (timeout_at > now && timeout_at < depart_[q]) {
      // The timeout may fire mid-execution; schedule the interrupt.
      events_.Push(timeout_at, kServeTimeout, q, stamps_[q]);
    }
  }

  void Interrupt(size_t q, uint64_t stamp, double now) {
    // Only meaningful while q still runs un-sprinted on the departure
    // schedule it had when the interrupt was set.
    if (stamps_[q] != stamp || sprinted_[q] || depart_[q] <= now) {
      return;
    }
    timed_out_[q] = 1;
    model().OnTimeout(q, now);
    if (params_.slo != nullptr) {
      params_.slo->OnTimeout(now);
    }
    if (SprintAllowed(q, now)) {
      Engage(q, now, SprintStart::kTimeout);
    }
  }

  void Depart(size_t q, double now) {
    // The time actually sprinted is debited after the query completes,
    // possibly overdrawing the bucket (Section 2.1, Algorithm 1).
    if (sprinted_[q] && !model().sprint_aborted(q)) {
      sprint_seconds_[q] = now - sprint_begin_[q];
      if (!model().full_sprint()) {
        budget_.ConsumeAllowingDebt(now, sprint_seconds_[q]);
      }
    }
    ++free_slots_;
    ++resolved_;
    if (params_.admission.Enabled()) {
      admission_.OnServiceSample(now - start_[q]);
    }
    model().OnDeparted(q, now);
    if (params_.slo != nullptr) {
      params_.slo->OnResponse(now, now - arrival_[q], model().served(q));
      params_.slo->OnBudgetLevel(now, budget_.Available(now));
    }
  }

  size_t* fifo_ = nullptr;
  size_t fifo_head_ = 0;
  size_t fifo_tail_ = 0;
  int free_slots_;
  size_t count_;             // attempts created so far
  size_t next_arrival_ = 0;  // last original whose arrival was pushed
  size_t resolved_ = 0;      // attempts departed or shed
  uint64_t stamp_counter_ = 0;
};

}  // namespace msprint

#endif  // MSPRINT_SRC_CORE_SERVE_LOOP_H_
