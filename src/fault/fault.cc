#include "src/fault/fault.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "src/common/rng.h"
#include "src/obs/obs.h"

namespace msprint {

namespace {

// Stream indices for deriving independent fault sub-seeds from the plan
// seed. Per-query streams hang off kPerQueryStream so a query index can
// never collide with a window stream.
constexpr uint64_t kBreakerStream = 1;
constexpr uint64_t kCrowdStream = 2;
constexpr uint64_t kPerQueryStream = 3;

std::vector<TimeWindow> PoissonWindows(uint64_t seed, double rate_per_hour,
                                       double duration_seconds,
                                       double horizon_seconds) {
  std::vector<TimeWindow> windows;
  if (rate_per_hour <= 0.0 || horizon_seconds <= 0.0) {
    return windows;
  }
  Rng rng(seed);
  const double mean_gap = 3600.0 / rate_per_hour;
  double t = 0.0;
  while (true) {
    t += -mean_gap * std::log(rng.NextDoubleOpenZero());
    if (t > horizon_seconds) {
      break;
    }
    windows.push_back({t, t + duration_seconds});
  }
  return windows;
}

// Merges explicitly scheduled windows into the Poisson draws, restoring
// the begin order AnyWindowContains relies on.
std::vector<TimeWindow> MergeWindows(std::vector<TimeWindow> windows,
                                     const std::vector<TimeWindow>& scheduled) {
  for (const TimeWindow& w : scheduled) {
    if (!std::isfinite(w.begin) || !std::isfinite(w.end) || w.begin < 0.0 ||
        w.end < w.begin) {
      throw std::invalid_argument(
          "scheduled fault window must satisfy 0 <= begin <= end");
    }
    windows.push_back(w);
  }
  std::stable_sort(windows.begin(), windows.end(),
                   [](const TimeWindow& a, const TimeWindow& b) {
                     return a.begin < b.begin;
                   });
  return windows;
}

bool AnyWindowContains(const std::vector<TimeWindow>& windows, double t) {
  // Windows are in begin order but may overlap; the first window beginning
  // after t cannot contain it, so scan the ordered prefix backwards.
  auto it = std::upper_bound(
      windows.begin(), windows.end(), t,
      [](double value, const TimeWindow& w) { return value < w.begin; });
  while (it != windows.begin()) {
    --it;
    if (t < it->end) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kToggleFailure:
      return "toggle-failure";
    case FaultKind::kBreakerTrip:
      return "breaker-trip";
    case FaultKind::kSprintAbort:
      return "sprint-abort";
    case FaultKind::kServiceOutlier:
      return "service-outlier";
    case FaultKind::kFlashCrowd:
      return "flash-crowd";
  }
  return "unknown";
}

bool FaultPlanConfig::Enabled() const {
  return toggle_failure_probability > 0.0 || breaker_trips_per_hour > 0.0 ||
         outlier_probability > 0.0 || flash_crowds_per_hour > 0.0 ||
         !scheduled_breaker_trips.empty() || !scheduled_flash_crowds.empty();
}

std::string FormatFaultTrace(const FaultTrace& trace) {
  std::string out;
  char line[160];
  for (const FaultEvent& event : trace) {
    if (event.query == FaultEvent::kNoQuery) {
      std::snprintf(line, sizeof(line), "%.6f %s detail=%.6f\n", event.time,
                    ToString(event.kind).c_str(), event.detail);
    } else {
      std::snprintf(line, sizeof(line), "%.6f %s query=%" PRIu64
                    " detail=%.6f\n",
                    event.time, ToString(event.kind).c_str(), event.query,
                    event.detail);
    }
    out += line;
  }
  return out;
}

FaultPlan FaultPlan::Generate(const FaultPlanConfig& config,
                              uint64_t run_seed, double horizon_seconds) {
  if (config.breaker_cooldown_seconds < 0.0 ||
      config.flash_crowd_duration_seconds < 0.0 ||
      config.flash_crowd_intensity <= 0.0 || config.outlier_multiplier <= 0.0) {
    throw std::invalid_argument("invalid FaultPlanConfig");
  }
  FaultPlan plan;
  plan.config_ = config;
  const uint64_t fault_seed =
      config.seed != 0 ? config.seed : DeriveSeed(run_seed, 0xFA017u);
  plan.per_query_seed_ = DeriveSeed(fault_seed, kPerQueryStream);
  plan.breaker_windows_ = MergeWindows(
      PoissonWindows(DeriveSeed(fault_seed, kBreakerStream),
                     config.breaker_trips_per_hour,
                     config.breaker_cooldown_seconds, horizon_seconds),
      config.scheduled_breaker_trips);
  plan.crowd_windows_ = MergeWindows(
      PoissonWindows(DeriveSeed(fault_seed, kCrowdStream),
                     config.flash_crowds_per_hour,
                     config.flash_crowd_duration_seconds, horizon_seconds),
      config.scheduled_flash_crowds);
  return plan;
}

QueryFaults FaultPlan::ForQuery(uint64_t query_index) const {
  QueryFaults faults;
  if (!enabled()) {
    return faults;
  }
  // Fresh stream per query; draws happen in a fixed order so every decision
  // is a pure function of (plan seed, query index).
  Rng rng(DeriveSeed(per_query_seed_, query_index));
  faults.toggle_fails = rng.NextDouble() < config_.toggle_failure_probability;
  if (rng.NextDouble() < config_.outlier_probability) {
    faults.service_multiplier = config_.outlier_multiplier;
  }
  return faults;
}

bool FaultPlan::BreakerActiveAt(double t) const {
  return AnyWindowContains(breaker_windows_, t);
}

double FaultPlan::ArrivalIntensityAt(double t) const {
  return AnyWindowContains(crowd_windows_, t) ? config_.flash_crowd_intensity
                                              : 1.0;
}

bool FaultInjector::SprintToggleFails(uint64_t query, double now) {
  if (!enabled() || !plan_->ForQuery(query).toggle_fails) {
    return false;
  }
  trace_.push_back({now, FaultKind::kToggleFailure, query, 0.0});
  return true;
}

bool FaultInjector::BreakerActive(double now) const {
  if (now < forced_lockout_until_) {
    return true;
  }
  return enabled() && plan_->BreakerActiveAt(now);
}

void FaultInjector::ForceBreakerLockout(double now, double cooldown_seconds) {
  if (!std::isfinite(now) || !std::isfinite(cooldown_seconds) ||
      cooldown_seconds < 0.0) {
    return;
  }
  forced_lockout_until_ =
      std::max(forced_lockout_until_, now + cooldown_seconds);
  RecordBreakerTrip(now, cooldown_seconds);
}

double FaultInjector::ServiceMultiplier(uint64_t query, double now) {
  if (!enabled()) {
    return 1.0;
  }
  const double multiplier = plan_->ForQuery(query).service_multiplier;
  if (multiplier > 1.0) {
    trace_.push_back({now, FaultKind::kServiceOutlier, query, multiplier});
    obs::Emit(now, obs::EventKind::kServiceOutlier, obs::Subsystem::kFault,
              obs::Severity::kInfo, query, multiplier);
  }
  return multiplier;
}

void FaultInjector::RecordBreakerTrip(double now, double cooldown_seconds) {
  trace_.push_back(
      {now, FaultKind::kBreakerTrip, FaultEvent::kNoQuery, cooldown_seconds});
}

void FaultInjector::RecordSprintAbort(uint64_t query, double now) {
  trace_.push_back({now, FaultKind::kSprintAbort, query, 0.0});
}

}  // namespace msprint
