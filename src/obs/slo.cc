#include "src/obs/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/persist/codec.h"

namespace msprint {
namespace obs {
namespace {

constexpr uint32_t kSloMagic = 0x314F4C53;  // "SLO1"
constexpr uint8_t kSloVersion = 2;

[[noreturn]] void Malformed(const std::string& what) {
  throw persist::PersistError(persist::ErrorCode::kFormat,
                              "SloPipeline: " + what);
}

void ValidateConfig(const SloConfig& config) {
  if (!std::isfinite(config.window_seconds) || config.window_seconds <= 0.0) {
    throw std::invalid_argument("SloConfig: window_seconds must be > 0");
  }
  if (!std::isfinite(config.sketch_relative_accuracy) ||
      config.sketch_relative_accuracy <= 0.0 ||
      config.sketch_relative_accuracy >= 1.0) {
    throw std::invalid_argument("SloConfig: accuracy must lie in (0, 1)");
  }
  if (config.timeline_capacity == 0) {
    throw std::invalid_argument("SloConfig: timeline_capacity must be >= 1");
  }
  const SloBurnConfig& b = config.burn;
  for (double v : {b.fast_short_seconds, b.fast_long_seconds,
                   b.fast_threshold, b.slow_short_seconds,
                   b.slow_long_seconds, b.slow_threshold}) {
    if (!std::isfinite(v) || v <= 0.0) {
      throw std::invalid_argument("SloConfig: burn parameters must be > 0");
    }
  }
  if (b.fast_short_seconds > b.fast_long_seconds ||
      b.slow_short_seconds > b.slow_long_seconds) {
    throw std::invalid_argument(
        "SloConfig: burn short window must not exceed its long window");
  }
  if (config.objectives.size() > SloPipeline::kMaxObjectives) {
    throw std::invalid_argument("SloConfig: too many objectives (max 32)");
  }
  for (const SloObjective& objective : config.objectives) {
    if (!std::isfinite(objective.threshold)) {
      throw std::invalid_argument("SloConfig: objective threshold not finite");
    }
    if (!std::isfinite(objective.budget) || objective.budget <= 0.0 ||
        objective.budget > 1.0) {
      throw std::invalid_argument(
          "SloConfig: objective budget must lie in (0, 1]");
    }
  }
  for (const SloAnomalyConfig& anomaly : config.anomalies) {
    if (!std::isfinite(anomaly.alpha) || anomaly.alpha <= 0.0 ||
        anomaly.alpha > 1.0) {
      throw std::invalid_argument("SloConfig: anomaly alpha must be in (0, 1]");
    }
    if (!std::isfinite(anomaly.z) || anomaly.z <= 0.0) {
      throw std::invalid_argument("SloConfig: anomaly z must be > 0");
    }
  }
}

bool Violates(double value, SloOp op, double threshold) {
  switch (op) {
    case SloOp::kLt:
      return !(value < threshold);
    case SloOp::kLe:
      return !(value <= threshold);
    case SloOp::kGt:
      return !(value > threshold);
    case SloOp::kGe:
      return !(value >= threshold);
  }
  return false;
}

// Reads a nested sketch payload. Every sketch in the pipeline merges
// into the run-wide one, so each must carry the configured accuracy.
QuantileSketch ReadSketch(persist::Reader& r, const SloConfig& config) {
  QuantileSketch sketch = QuantileSketch::Deserialize(r.GetString());
  if (sketch.relative_accuracy() != config.sketch_relative_accuracy) {
    Malformed("sketch accuracy differs from the config");
  }
  return sketch;
}

SloWindow MakeWindow(uint64_t index, const SloConfig& config) {
  SloWindow window(config.sketch_relative_accuracy);
  window.index = index;
  window.begin = static_cast<double>(index) * config.window_seconds;
  window.end = window.begin + config.window_seconds;
  return window;
}

// "value or '-'" rendering for optional gauges.
std::string OptValue(bool has, double value) {
  return has ? StableDouble(value) : std::string("-");
}

}  // namespace

std::string ToString(SloSignal signal) {
  switch (signal) {
    case SloSignal::kP50:
      return "p50";
    case SloSignal::kP90:
      return "p90";
    case SloSignal::kP99:
      return "p99";
    case SloSignal::kMeanResponse:
      return "mean_response";
    case SloSignal::kGoodputRatio:
      return "goodput_ratio";
    case SloSignal::kShedFraction:
      return "shed_fraction";
    case SloSignal::kQueueDepth:
      return "queue_depth";
    case SloSignal::kBudgetLevel:
      return "budget_level";
    case SloSignal::kEngageRate:
      return "engage_rate";
    case SloSignal::kArrivalRate:
      return "arrival_rate";
  }
  return "unknown";
}

bool ParseSloSignal(std::string_view token, SloSignal* out) {
  static constexpr SloSignal kAll[] = {
      SloSignal::kP50,          SloSignal::kP90,
      SloSignal::kP99,          SloSignal::kMeanResponse,
      SloSignal::kGoodputRatio, SloSignal::kShedFraction,
      SloSignal::kQueueDepth,   SloSignal::kBudgetLevel,
      SloSignal::kEngageRate,   SloSignal::kArrivalRate,
  };
  for (SloSignal signal : kAll) {
    if (token == ToString(signal)) {
      *out = signal;
      return true;
    }
  }
  return false;
}

std::string ToString(SloOp op) {
  switch (op) {
    case SloOp::kLt:
      return "<";
    case SloOp::kLe:
      return "<=";
    case SloOp::kGt:
      return ">";
    case SloOp::kGe:
      return ">=";
  }
  return "?";
}

std::string SloObjective::Name() const {
  return ToString(signal) + ToString(op) + StableDouble(threshold);
}

SloConfig ParseSloObjectives(const std::string& text) {
  SloConfig config;
  std::istringstream lines(text);
  std::string line;
  size_t line_number = 0;
  auto fail = [&](const std::string& why) {
    throw std::invalid_argument("objectives line " +
                                std::to_string(line_number) + ": " + why);
  };
  while (std::getline(lines, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tokens(line);
    std::string key;
    if (!(tokens >> key)) {
      continue;  // blank or comment-only line
    }
    auto number = [&](const char* what) {
      double v;
      if (!(tokens >> v)) {
        fail(std::string("expected number for ") + what);
      }
      return v;
    };
    if (key == "window") {
      config.window_seconds = number("window");
    } else if (key == "accuracy") {
      config.sketch_relative_accuracy = number("accuracy");
    } else if (key == "capacity") {
      const double v = number("capacity");
      if (v < 1.0 || v != std::floor(v)) {
        fail("capacity must be a positive integer");
      }
      config.timeline_capacity = static_cast<size_t>(v);
    } else if (key == "burn") {
      std::string pair;
      if (!(tokens >> pair) || (pair != "fast" && pair != "slow")) {
        fail("expected 'burn fast|slow <short> <long> <threshold>'");
      }
      const double short_s = number("burn short window");
      const double long_s = number("burn long window");
      const double threshold = number("burn threshold");
      if (pair == "fast") {
        config.burn.fast_short_seconds = short_s;
        config.burn.fast_long_seconds = long_s;
        config.burn.fast_threshold = threshold;
      } else {
        config.burn.slow_short_seconds = short_s;
        config.burn.slow_long_seconds = long_s;
        config.burn.slow_threshold = threshold;
      }
    } else if (key == "objective") {
      SloObjective objective;
      std::string signal_token;
      std::string op_token;
      if (!(tokens >> signal_token >> op_token)) {
        fail("expected 'objective <signal> <op> <threshold> [budget <b>]'");
      }
      if (!ParseSloSignal(signal_token, &objective.signal)) {
        fail("unknown signal '" + signal_token + "'");
      }
      if (op_token == "<") {
        objective.op = SloOp::kLt;
      } else if (op_token == "<=") {
        objective.op = SloOp::kLe;
      } else if (op_token == ">") {
        objective.op = SloOp::kGt;
      } else if (op_token == ">=") {
        objective.op = SloOp::kGe;
      } else {
        fail("unknown comparator '" + op_token + "'");
      }
      objective.threshold = number("objective threshold");
      std::string extra;
      if (tokens >> extra) {
        if (extra != "budget") {
          fail("unexpected token '" + extra + "'");
        }
        objective.budget = number("objective budget");
      }
      config.objectives.push_back(objective);
    } else if (key == "anomaly") {
      SloAnomalyConfig anomaly;
      std::string signal_token;
      if (!(tokens >> signal_token)) {
        fail("expected 'anomaly <signal> [alpha A] [z Z] [warmup N]'");
      }
      if (!ParseSloSignal(signal_token, &anomaly.signal)) {
        fail("unknown signal '" + signal_token + "'");
      }
      std::string option;
      while (tokens >> option) {
        if (option == "alpha") {
          anomaly.alpha = number("anomaly alpha");
        } else if (option == "z") {
          anomaly.z = number("anomaly z");
        } else if (option == "warmup") {
          const double v = number("anomaly warmup");
          if (v < 0.0 || v != std::floor(v)) {
            fail("warmup must be a non-negative integer");
          }
          anomaly.warmup_windows = static_cast<uint64_t>(v);
        } else {
          fail("unknown anomaly option '" + option + "'");
        }
      }
      config.anomalies.push_back(anomaly);
    } else {
      fail("unknown directive '" + key + "'");
    }
  }
  ValidateConfig(config);
  return config;
}

bool SloWindow::SignalValue(SloSignal signal, double window_seconds,
                            double* out) const {
  switch (signal) {
    case SloSignal::kP50:
    case SloSignal::kP90:
    case SloSignal::kP99:
      if (responses == 0) {
        return false;
      }
      *out = response.Quantile(signal == SloSignal::kP50   ? 0.50
                               : signal == SloSignal::kP90 ? 0.90
                                                           : 0.99);
      return true;
    case SloSignal::kMeanResponse:
      if (responses == 0) {
        return false;
      }
      *out = response_sum / static_cast<double>(responses);
      return true;
    case SloSignal::kGoodputRatio: {
      const uint64_t denominator = good + bad + shed;
      if (denominator == 0) {
        return false;
      }
      *out = static_cast<double>(good) / static_cast<double>(denominator);
      return true;
    }
    case SloSignal::kShedFraction: {
      const uint64_t offered = arrivals + shed;
      if (offered == 0) {
        return false;
      }
      *out = static_cast<double>(shed) / static_cast<double>(offered);
      return true;
    }
    case SloSignal::kQueueDepth:
      if (!has_queue_depth) {
        return false;
      }
      *out = queue_depth;
      return true;
    case SloSignal::kBudgetLevel:
      if (!has_budget) {
        return false;
      }
      *out = budget_level;
      return true;
    case SloSignal::kEngageRate:
      *out = static_cast<double>(engages) / window_seconds;
      return true;
    case SloSignal::kArrivalRate:
      *out = static_cast<double>(arrivals + shed) / window_seconds;
      return true;
  }
  return false;
}

SloPipeline::SloPipeline(SloConfig config)
    : config_(std::move(config)),
      open_(config_.sketch_relative_accuracy),
      objective_states_(config_.objectives.size()),
      anomaly_states_(config_.anomalies.size()),
      run_response_(config_.sketch_relative_accuracy),
      burn_counts_(config_.objectives.size()) {
  ValidateConfig(config_);
  open_ = MakeWindow(0, config_);
  const SloBurnConfig& burn = config_.burn;
  const double horizons[kBurnHorizons] = {
      burn.fast_short_seconds, burn.fast_long_seconds,
      burn.slow_short_seconds, burn.slow_long_seconds};
  for (size_t h = 0; h < kBurnHorizons; ++h) {
    burn_windows_[h] = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(horizons[h] / config_.window_seconds)));
  }
}

void SloPipeline::Advance(double now) {
  if (!std::isfinite(now) || now < 0.0) {
    return;  // defensive: malformed timestamps feed the open window
  }
  const uint64_t target =
      static_cast<uint64_t>(now / config_.window_seconds);
  while (open_.index < target) {
    CloseWindow();
  }
}

void SloPipeline::OnArrival(double now) {
  Advance(now);
  ++open_.arrivals;
}

void SloPipeline::OnResponse(double now, double response_seconds, bool good) {
  Advance(now);
  if (open_.response.Insert(response_seconds)) {
    open_.response_sum += response_seconds;
  }
  ++open_.responses;
  if (good) {
    ++open_.good;
  } else {
    ++open_.bad;
  }
}

void SloPipeline::OnShed(double now) {
  Advance(now);
  ++open_.shed;
}

void SloPipeline::OnTimeout(double now) {
  Advance(now);
  ++open_.timeouts;
}

void SloPipeline::OnSprintEngage(double now) {
  Advance(now);
  ++open_.engages;
}

void SloPipeline::OnSprintAbort(double now) {
  Advance(now);
  ++open_.aborts;
}

void SloPipeline::OnQueueDepth(double now, double depth) {
  Advance(now);
  open_.has_queue_depth = true;
  open_.queue_depth = depth;
}

void SloPipeline::OnBudgetLevel(double now, double level) {
  Advance(now);
  open_.has_budget = true;
  open_.budget_level = level;
}

void SloPipeline::Finish(double end_time) {
  if (!finished_) {
    Advance(end_time);
    // Close the partial window containing end_time so its data reaches
    // the timeline; a run that ends exactly on a boundary closed it in
    // Advance and this closes the (empty) successor, which the exports
    // render identically for identical feeds.
    CloseWindow();
    finished_ = true;
  }
  if (MetricsRegistry* metrics = ActiveMetrics()) {
    metrics->GetCounter("slo/windows").Add(windows_closed_);
    metrics->GetCounter("slo/windows_dropped").Add(windows_dropped_);
    metrics->GetCounter("slo/alert_windows").Add(alert_windows_);
    metrics->GetCounter("slo/alerts_fired").Add(AlertsFired());
    metrics->GetCounter("slo/alerts_cleared").Add(AlertsCleared());
    metrics->GetCounter("slo/anomalies").Add(anomaly_count());
    uint64_t bad_windows = 0;
    for (const SloObjectiveState& state : objective_states_) {
      bad_windows += state.bad_windows;
    }
    metrics->GetCounter("slo/bad_windows").Add(bad_windows);
  }
}

void SloPipeline::SlideBurnCounts(size_t newest) {
  const SloWindow& entering = closed_[newest];
  for (size_t h = 0; h < kBurnHorizons; ++h) {
    const SloWindow* leaving = newest >= burn_windows_[h]
                                   ? &closed_[newest - burn_windows_[h]]
                                   : nullptr;
    for (size_t i = 0; i < burn_counts_.size(); ++i) {
      const uint32_t bit = 1u << i;
      BurnCounts& counts = burn_counts_[i][h];
      counts.evaluated += (entering.evaluated_mask & bit) != 0;
      counts.bad +=
          (entering.evaluated_mask & entering.violation_mask & bit) != 0;
      if (leaving != nullptr) {
        counts.evaluated -= (leaving->evaluated_mask & bit) != 0;
        counts.bad -=
            (leaving->evaluated_mask & leaving->violation_mask & bit) != 0;
      }
    }
  }
}

double SloPipeline::BurnRate(size_t objective, size_t horizon) const {
  const BurnCounts& counts = burn_counts_[objective][horizon];
  if (counts.evaluated == 0) {
    return 0.0;
  }
  const double bad_fraction = static_cast<double>(counts.bad) /
                              static_cast<double>(counts.evaluated);
  return bad_fraction / config_.objectives[objective].budget;
}

void SloPipeline::EvaluateObjectives(SloWindow& window) {
  for (size_t i = 0; i < config_.objectives.size(); ++i) {
    const SloObjective& objective = config_.objectives[i];
    double value = 0.0;
    if (!window.SignalValue(objective.signal, config_.window_seconds,
                            &value)) {
      continue;
    }
    window.evaluated_mask |= 1u << i;
    if (Violates(value, objective.op, objective.threshold)) {
      window.violation_mask |= 1u << i;
    }
  }
}

void SloPipeline::EvaluateAnomalies(const SloWindow& window) {
  for (size_t i = 0; i < config_.anomalies.size(); ++i) {
    const SloAnomalyConfig& anomaly = config_.anomalies[i];
    double value = 0.0;
    if (!window.SignalValue(anomaly.signal, config_.window_seconds, &value)) {
      continue;
    }
    SloAnomalyState& state = anomaly_states_[i];
    if (state.windows_seen >= anomaly.warmup_windows &&
        state.ewma_var > 0.0) {
      const double z =
          std::fabs(value - state.ewma_mean) / std::sqrt(state.ewma_var);
      if (z > anomaly.z) {
        ++state.anomalies;
        Emit(window.end, EventKind::kSloAnomaly, Subsystem::kSlo,
             Severity::kWarn, i, z);
      }
    }
    if (state.windows_seen == 0) {
      state.ewma_mean = value;
      state.ewma_var = 0.0;
    } else {
      const double delta = value - state.ewma_mean;
      state.ewma_mean += anomaly.alpha * delta;
      state.ewma_var = (1.0 - anomaly.alpha) *
                       (state.ewma_var + anomaly.alpha * delta * delta);
    }
    ++state.windows_seen;
  }
}

void SloPipeline::CloseWindow() {
  EvaluateObjectives(open_);
  run_response_.Merge(open_.response);
  closed_.push_back(std::move(open_));
  SloWindow& window = closed_.back();
  ++windows_closed_;
  SlideBurnCounts(closed_.size() - 1);
  // Alert state machine: a burn-rate pair pages when both its windows
  // exceed the pair threshold; either pair paging keeps the alert active.
  for (size_t i = 0; i < config_.objectives.size(); ++i) {
    SloObjectiveState& state = objective_states_[i];
    const uint32_t bit = 1u << i;
    if (window.evaluated_mask & bit) {
      ++state.windows_evaluated;
      if (window.violation_mask & bit) {
        ++state.bad_windows;
      }
    }
    const SloBurnConfig& burn = config_.burn;
    const double fast = std::min(BurnRate(i, 0), BurnRate(i, 1));
    const double slow = std::min(BurnRate(i, 2), BurnRate(i, 3));
    const bool paging =
        fast > burn.fast_threshold || slow > burn.slow_threshold;
    if (paging && !state.alert_active) {
      state.alert_active = true;
      ++state.fires;
      if (!state.has_first_fire) {
        state.has_first_fire = true;
        state.first_fire_time = window.end;
      }
      Emit(window.end, EventKind::kSloAlertFire, Subsystem::kSlo,
           Severity::kError, i, std::max(fast, slow));
    } else if (!paging && state.alert_active) {
      state.alert_active = false;
      ++state.clears;
      Emit(window.end, EventKind::kSloAlertClear, Subsystem::kSlo,
           Severity::kInfo, i, std::max(fast, slow));
    }
    if (state.alert_active) {
      window.alert_mask |= bit;
    }
  }
  if (window.alert_mask != 0) {
    ++alert_windows_;
  }
  EvaluateAnomalies(window);
  const size_t retain = RetainedWindowFloor();
  while (closed_.size() > retain) {
    closed_.pop_front();
    ++windows_dropped_;
  }
  open_ = MakeWindow(window.index + 1, config_);
}

size_t SloPipeline::RetainedWindowFloor() const {
  const SloBurnConfig& burn = config_.burn;
  const double longest =
      std::max(burn.fast_long_seconds, burn.slow_long_seconds);
  const size_t horizon_windows = static_cast<size_t>(
      std::ceil(longest / config_.window_seconds));
  return std::max(config_.timeline_capacity, horizon_windows + 1);
}

uint64_t SloPipeline::anomaly_count() const {
  uint64_t total = 0;
  for (const SloAnomalyState& state : anomaly_states_) {
    total += state.anomalies;
  }
  return total;
}

double SloPipeline::FirstAlertSeconds() const {
  double first = -1.0;
  for (const SloObjectiveState& state : objective_states_) {
    if (state.has_first_fire &&
        (first < 0.0 || state.first_fire_time < first)) {
      first = state.first_fire_time;
    }
  }
  return first;
}

uint64_t SloPipeline::AlertsFired() const {
  uint64_t total = 0;
  for (const SloObjectiveState& state : objective_states_) {
    total += state.fires;
  }
  return total;
}

uint64_t SloPipeline::AlertsCleared() const {
  uint64_t total = 0;
  for (const SloObjectiveState& state : objective_states_) {
    total += state.clears;
  }
  return total;
}

double SloPipeline::PagingFraction() const {
  if (windows_closed_ == 0) {
    return 0.0;
  }
  return static_cast<double>(alert_windows_) /
         static_cast<double>(windows_closed_);
}

bool SloPipeline::BurnedThrough() const {
  for (size_t i = 0; i < config_.objectives.size(); ++i) {
    const SloObjectiveState& state = objective_states_[i];
    if (state.windows_evaluated == 0) {
      continue;
    }
    const double bad_fraction =
        static_cast<double>(state.bad_windows) /
        static_cast<double>(state.windows_evaluated);
    if (bad_fraction > config_.objectives[i].budget) {
      return true;
    }
  }
  return false;
}

std::string SloPipeline::FormatTimeline() const {
  std::string out;
  out += "# msprint slo timeline v1\n";
  out += "window " + StableDouble(config_.window_seconds) + " accuracy " +
         StableDouble(config_.sketch_relative_accuracy) + " capacity " +
         std::to_string(config_.timeline_capacity) + "\n";
  out += "windows " + std::to_string(windows_closed_) + " dropped " +
         std::to_string(windows_dropped_) + "\n";
  char buf[64];
  for (const SloWindow& w : closed_) {
    std::snprintf(buf, sizeof(buf), "w %llu",
                  static_cast<unsigned long long>(w.index));
    out += buf;
    out += " begin " + StableDouble(w.begin) + " end " + StableDouble(w.end);
    out += " arrivals " + std::to_string(w.arrivals);
    out += " responses " + std::to_string(w.responses);
    out += " good " + std::to_string(w.good);
    out += " bad " + std::to_string(w.bad);
    out += " shed " + std::to_string(w.shed);
    out += " engages " + std::to_string(w.engages);
    out += " aborts " + std::to_string(w.aborts);
    out += " timeouts " + std::to_string(w.timeouts);
    out += " p50 " + StableDouble(w.response.Quantile(0.50));
    out += " p90 " + StableDouble(w.response.Quantile(0.90));
    out += " p99 " + StableDouble(w.response.Quantile(0.99));
    const double mean =
        w.responses == 0
            ? 0.0
            : w.response_sum / static_cast<double>(w.responses);
    out += " mean " + StableDouble(mean);
    out += " queue_depth " + OptValue(w.has_queue_depth, w.queue_depth);
    out += " budget " + OptValue(w.has_budget, w.budget_level);
    out += " viol " + std::to_string(w.violation_mask);
    out += " alert " + std::to_string(w.alert_mask);
    out += "\n";
  }
  return out;
}

std::string SloPipeline::FormatTimelineJsonl() const {
  std::string out;
  for (const SloWindow& w : closed_) {
    const double mean =
        w.responses == 0
            ? 0.0
            : w.response_sum / static_cast<double>(w.responses);
    out += "{\"w\":" + std::to_string(w.index);
    out += ",\"begin\":" + StableDouble(w.begin);
    out += ",\"end\":" + StableDouble(w.end);
    out += ",\"arrivals\":" + std::to_string(w.arrivals);
    out += ",\"responses\":" + std::to_string(w.responses);
    out += ",\"good\":" + std::to_string(w.good);
    out += ",\"bad\":" + std::to_string(w.bad);
    out += ",\"shed\":" + std::to_string(w.shed);
    out += ",\"engages\":" + std::to_string(w.engages);
    out += ",\"aborts\":" + std::to_string(w.aborts);
    out += ",\"timeouts\":" + std::to_string(w.timeouts);
    out += ",\"p50\":" + StableDouble(w.response.Quantile(0.50));
    out += ",\"p90\":" + StableDouble(w.response.Quantile(0.90));
    out += ",\"p99\":" + StableDouble(w.response.Quantile(0.99));
    out += ",\"mean\":" + StableDouble(mean);
    out += ",\"queue_depth\":";
    out += w.has_queue_depth ? StableDouble(w.queue_depth)
                             : std::string("null");
    out += ",\"budget\":";
    out += w.has_budget ? StableDouble(w.budget_level) : std::string("null");
    out += ",\"viol\":" + std::to_string(w.violation_mask);
    out += ",\"alert\":" + std::to_string(w.alert_mask);
    out += "}\n";
  }
  return out;
}

std::string SloPipeline::FormatSummary() const {
  std::string out;
  out += "# msprint slo summary v1\n";
  out += "windows " + std::to_string(windows_closed_) + " dropped " +
         std::to_string(windows_dropped_) + " alert_windows " +
         std::to_string(alert_windows_) + " paging_fraction " +
         StableDouble(PagingFraction()) + "\n";
  // The run-wide response sketch, open window included, renders through
  // the same summarizer as registry exports (obs-diff-parsable `hist`
  // line).
  QuantileSketch response = run_response_;
  response.Merge(open_.response);
  MetricsSnapshot snapshot;
  snapshot.histograms.push_back(
      SummarizeSketch("slo/response_time_seconds", response));
  out += snapshot.ToText();
  for (size_t i = 0; i < config_.objectives.size(); ++i) {
    const SloObjective& objective = config_.objectives[i];
    const SloObjectiveState& state = objective_states_[i];
    const double bad_fraction =
        state.windows_evaluated == 0
            ? 0.0
            : static_cast<double>(state.bad_windows) /
                  static_cast<double>(state.windows_evaluated);
    out += "objective " + std::to_string(i) + " " + objective.Name();
    out += " evaluated " + std::to_string(state.windows_evaluated);
    out += " bad " + std::to_string(state.bad_windows);
    out += " budget " + StableDouble(objective.budget);
    out += " bad_fraction " + StableDouble(bad_fraction);
    out += " burned ";
    out += (state.windows_evaluated > 0 &&
            bad_fraction > objective.budget)
               ? "1"
               : "0";
    out += " fires " + std::to_string(state.fires);
    out += " clears " + std::to_string(state.clears);
    out += " first_alert ";
    out += state.has_first_fire ? StableDouble(state.first_fire_time)
                                : std::string("-");
    out += "\n";
  }
  for (size_t i = 0; i < config_.anomalies.size(); ++i) {
    out += "anomaly " + std::to_string(i) + " " +
           ToString(config_.anomalies[i].signal) + " count " +
           std::to_string(anomaly_states_[i].anomalies) + "\n";
  }
  out += "burned_through ";
  out += BurnedThrough() ? "1" : "0";
  out += "\n";
  return out;
}

std::string SloPipeline::FormatWatch() const {
  std::string out;
  out += "# msprint watch (p99 per window; '!' = active alert)\n";
  double max_p99 = 0.0;
  for (const SloWindow& w : closed_) {
    max_p99 = std::max(max_p99, w.response.Quantile(0.99));
  }
  for (const SloWindow& w : closed_) {
    const double p99 = w.response.Quantile(0.99);
    const size_t bar =
        max_p99 > 0.0
            ? static_cast<size_t>(40.0 * p99 / max_p99 + 0.5)
            : 0;
    out += "t " + StableDouble(w.begin) + " p99 " + StableDouble(p99) + " |";
    out.append(bar, '#');
    if (w.alert_mask != 0) {
      out += " !alert " + std::to_string(w.alert_mask);
    }
    out += "\n";
  }
  return out;
}

std::string SloPipeline::SaveState() const {
  persist::Writer w;
  w.PutU32(kSloMagic);
  w.PutU8(kSloVersion);
  // --- config ---
  w.PutF64(config_.window_seconds);
  w.PutF64(config_.sketch_relative_accuracy);
  w.PutU64(config_.timeline_capacity);
  w.PutF64(config_.burn.fast_short_seconds);
  w.PutF64(config_.burn.fast_long_seconds);
  w.PutF64(config_.burn.fast_threshold);
  w.PutF64(config_.burn.slow_short_seconds);
  w.PutF64(config_.burn.slow_long_seconds);
  w.PutF64(config_.burn.slow_threshold);
  w.PutU64(config_.objectives.size());
  for (const SloObjective& objective : config_.objectives) {
    w.PutU8(static_cast<uint8_t>(objective.signal));
    w.PutU8(static_cast<uint8_t>(objective.op));
    w.PutF64(objective.threshold);
    w.PutF64(objective.budget);
  }
  w.PutU64(config_.anomalies.size());
  for (const SloAnomalyConfig& anomaly : config_.anomalies) {
    w.PutU8(static_cast<uint8_t>(anomaly.signal));
    w.PutF64(anomaly.alpha);
    w.PutF64(anomaly.z);
    w.PutU64(anomaly.warmup_windows);
  }
  // --- lifetime state ---
  w.PutBool(finished_);
  w.PutU64(windows_closed_);
  w.PutU64(windows_dropped_);
  w.PutU64(alert_windows_);
  for (const SloObjectiveState& state : objective_states_) {
    w.PutU64(state.windows_evaluated);
    w.PutU64(state.bad_windows);
    w.PutBool(state.alert_active);
    w.PutU64(state.fires);
    w.PutU64(state.clears);
    w.PutBool(state.has_first_fire);
    w.PutF64(state.first_fire_time);
  }
  for (const SloAnomalyState& state : anomaly_states_) {
    w.PutU64(state.windows_seen);
    w.PutF64(state.ewma_mean);
    w.PutF64(state.ewma_var);
    w.PutU64(state.anomalies);
  }
  // --- run-wide response sketch ---
  w.PutString(run_response_.Serialize());
  // --- windows: open first, then the closed ring oldest-first ---
  auto put_window = [&w](const SloWindow& window) {
    w.PutU64(window.index);
    w.PutF64(window.begin);
    w.PutF64(window.end);
    w.PutString(window.response.Serialize());
    w.PutF64(window.response_sum);
    w.PutU64(window.arrivals);
    w.PutU64(window.responses);
    w.PutU64(window.good);
    w.PutU64(window.bad);
    w.PutU64(window.shed);
    w.PutU64(window.engages);
    w.PutU64(window.aborts);
    w.PutU64(window.timeouts);
    w.PutBool(window.has_queue_depth);
    w.PutF64(window.queue_depth);
    w.PutBool(window.has_budget);
    w.PutF64(window.budget_level);
    w.PutU32(window.evaluated_mask);
    w.PutU32(window.violation_mask);
    w.PutU32(window.alert_mask);
  };
  put_window(open_);
  w.PutU64(closed_.size());
  for (const SloWindow& window : closed_) {
    put_window(window);
  }
  return w.Take();
}

SloPipeline SloPipeline::RestoreState(std::string_view bytes) {
  persist::Reader r(bytes);
  if (r.GetU32() != kSloMagic) {
    Malformed("bad magic");
  }
  if (r.GetU8() != kSloVersion) {
    Malformed("unsupported version");
  }
  SloConfig config;
  config.window_seconds = r.GetFiniteF64("slo window");
  config.sketch_relative_accuracy = r.GetFiniteF64("slo accuracy");
  config.timeline_capacity = static_cast<size_t>(r.GetU64());
  config.burn.fast_short_seconds = r.GetFiniteF64("burn fast short");
  config.burn.fast_long_seconds = r.GetFiniteF64("burn fast long");
  config.burn.fast_threshold = r.GetFiniteF64("burn fast threshold");
  config.burn.slow_short_seconds = r.GetFiniteF64("burn slow short");
  config.burn.slow_long_seconds = r.GetFiniteF64("burn slow long");
  config.burn.slow_threshold = r.GetFiniteF64("burn slow threshold");
  const uint64_t num_objectives = r.GetCount(18, "slo objectives");
  for (uint64_t i = 0; i < num_objectives; ++i) {
    SloObjective objective;
    const uint8_t signal = r.GetU8();
    const uint8_t op = r.GetU8();
    if (signal > static_cast<uint8_t>(SloSignal::kArrivalRate)) {
      Malformed("bad objective signal");
    }
    if (op > static_cast<uint8_t>(SloOp::kGe)) {
      Malformed("bad objective op");
    }
    objective.signal = static_cast<SloSignal>(signal);
    objective.op = static_cast<SloOp>(op);
    objective.threshold = r.GetFiniteF64("objective threshold");
    objective.budget = r.GetFiniteF64("objective budget");
    config.objectives.push_back(objective);
  }
  const uint64_t num_anomalies = r.GetCount(25, "slo anomalies");
  for (uint64_t i = 0; i < num_anomalies; ++i) {
    SloAnomalyConfig anomaly;
    const uint8_t signal = r.GetU8();
    if (signal > static_cast<uint8_t>(SloSignal::kArrivalRate)) {
      Malformed("bad anomaly signal");
    }
    anomaly.signal = static_cast<SloSignal>(signal);
    anomaly.alpha = r.GetFiniteF64("anomaly alpha");
    anomaly.z = r.GetFiniteF64("anomaly z");
    anomaly.warmup_windows = r.GetU64();
    config.anomalies.push_back(anomaly);
  }
  try {
    ValidateConfig(config);
  } catch (const std::invalid_argument& error) {
    Malformed(error.what());
  }
  SloPipeline pipeline(std::move(config));
  pipeline.finished_ = r.GetBool();
  pipeline.windows_closed_ = r.GetU64();
  pipeline.windows_dropped_ = r.GetU64();
  pipeline.alert_windows_ = r.GetU64();
  for (SloObjectiveState& state : pipeline.objective_states_) {
    state.windows_evaluated = r.GetU64();
    state.bad_windows = r.GetU64();
    state.alert_active = r.GetBool();
    state.fires = r.GetU64();
    state.clears = r.GetU64();
    state.has_first_fire = r.GetBool();
    state.first_fire_time = r.GetF64();
  }
  for (SloAnomalyState& state : pipeline.anomaly_states_) {
    state.windows_seen = r.GetU64();
    state.ewma_mean = r.GetFiniteF64("anomaly ewma mean");
    state.ewma_var = r.GetFiniteF64("anomaly ewma var");
    state.anomalies = r.GetU64();
  }
  pipeline.run_response_ = ReadSketch(r, pipeline.config_);
  auto get_window = [&r, &pipeline]() {
    SloWindow w(pipeline.config_.sketch_relative_accuracy);
    w.index = r.GetU64();
    w.begin = r.GetFiniteF64("window begin");
    w.end = r.GetFiniteF64("window end");
    w.response = ReadSketch(r, pipeline.config_);
    w.response_sum = r.GetFiniteF64("window response_sum");
    w.arrivals = r.GetU64();
    w.responses = r.GetU64();
    w.good = r.GetU64();
    w.bad = r.GetU64();
    w.shed = r.GetU64();
    w.engages = r.GetU64();
    w.aborts = r.GetU64();
    w.timeouts = r.GetU64();
    w.has_queue_depth = r.GetBool();
    w.queue_depth = r.GetF64();
    w.has_budget = r.GetBool();
    w.budget_level = r.GetF64();
    w.evaluated_mask = r.GetU32();
    w.violation_mask = r.GetU32();
    w.alert_mask = r.GetU32();
    if (w.begin > w.end) {
      Malformed("window bounds inverted");
    }
    return w;
  };
  pipeline.open_ = get_window();
  const uint64_t num_closed = r.GetCount(100, "slo closed windows");
  pipeline.closed_.clear();
  uint64_t previous_index = 0;
  for (uint64_t i = 0; i < num_closed; ++i) {
    SloWindow w = get_window();
    if (i > 0 && w.index <= previous_index) {
      Malformed("window order violated");
    }
    previous_index = w.index;
    pipeline.closed_.push_back(std::move(w));
  }
  if (!pipeline.closed_.empty() &&
      pipeline.open_.index <= pipeline.closed_.back().index) {
    Malformed("open window behind the closed ring");
  }
  r.ExpectEnd();
  for (size_t i = 0; i < pipeline.closed_.size(); ++i) {
    pipeline.SlideBurnCounts(i);
  }
  return pipeline;
}

}  // namespace obs
}  // namespace msprint
