#include "src/robust/storm.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "src/obs/slo.h"

namespace msprint {
namespace robust {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

double ParseNumber(const std::string& key, const std::string& value) {
  size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument("storm config " + key + ": expected a number, got '" +
                                value + "'");
  }
  if (consumed != value.size() || !std::isfinite(parsed)) {
    throw std::invalid_argument("storm config " + key +
                                ": malformed number '" + value + "'");
  }
  return parsed;
}

size_t ParseCount(const std::string& key, const std::string& value) {
  const double parsed = ParseNumber(key, value);
  if (parsed < 0.0 || parsed != std::floor(parsed)) {
    throw std::invalid_argument("storm config " + key +
                                ": expected a non-negative integer, got '" +
                                value + "'");
  }
  return static_cast<size_t>(parsed);
}

WorkloadId ParseWorkloadName(const std::string& value) {
  for (WorkloadId id : AllWorkloads()) {
    if (ToString(id) == value) {
      return id;
    }
  }
  throw std::invalid_argument("storm config workload: unknown workload '" +
                              value + "'");
}

AdmissionPolicy ParsePolicyName(const std::string& value) {
  if (value == "none") return AdmissionPolicy::kNone;
  if (value == "queue-cap") return AdmissionPolicy::kQueueCap;
  if (value == "deadline-aware") return AdmissionPolicy::kDeadlineAware;
  if (value == "codel") return AdmissionPolicy::kCoDel;
  throw std::invalid_argument(
      "storm config admission_policy: expected "
      "none|queue-cap|deadline-aware|codel, got '" +
      value + "'");
}

}  // namespace

StormConfig ParseStormConfig(const std::string& text) {
  StormConfig config;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string raw =
        text.substr(pos, eol == std::string::npos ? eol : eol - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;

    const size_t hash = raw.find('#');
    const std::string line =
        Trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty()) {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("storm config: expected 'key = value', got '" +
                                  line + "'");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      throw std::invalid_argument("storm config: empty key or value in '" +
                                  line + "'");
    }

    if (key == "workload") {
      config.workload = ParseWorkloadName(value);
    } else if (key == "seed") {
      config.seed = static_cast<uint64_t>(ParseCount(key, value));
    } else if (key == "queries") {
      config.queries = ParseCount(key, value);
    } else if (key == "warmup") {
      config.warmup = ParseCount(key, value);
    } else if (key == "utilization") {
      config.utilization = ParseNumber(key, value);
    } else if (key == "slots") {
      config.slots = static_cast<int>(ParseCount(key, value));
    } else if (key == "timeout_seconds") {
      config.timeout_seconds = ParseNumber(key, value);
    } else if (key == "budget_fraction") {
      config.budget_fraction = ParseNumber(key, value);
    } else if (key == "refill_seconds") {
      config.refill_seconds = ParseNumber(key, value);
    } else if (key == "crowd_begin_seconds") {
      config.crowd_begin_seconds = ParseNumber(key, value);
    } else if (key == "crowd_end_seconds") {
      config.crowd_end_seconds = ParseNumber(key, value);
    } else if (key == "crowd_intensity") {
      config.crowd_intensity = ParseNumber(key, value);
    } else if (key == "breaker_begin_seconds") {
      config.breaker_begin_seconds = ParseNumber(key, value);
    } else if (key == "breaker_end_seconds") {
      config.breaker_end_seconds = ParseNumber(key, value);
    } else if (key == "max_attempts") {
      config.max_attempts = ParseCount(key, value);
    } else if (key == "backoff_base_seconds") {
      config.backoff_base_seconds = ParseNumber(key, value);
    } else if (key == "backoff_multiplier") {
      config.backoff_multiplier = ParseNumber(key, value);
    } else if (key == "backoff_jitter_fraction") {
      config.backoff_jitter_fraction = ParseNumber(key, value);
    } else if (key == "abandon_wait_seconds") {
      config.abandon_wait_seconds = ParseNumber(key, value);
    } else if (key == "admission_policy") {
      config.admission_policy = ParsePolicyName(value);
    } else if (key == "queue_cap") {
      config.queue_cap = ParseCount(key, value);
    } else if (key == "deadline_slack") {
      config.deadline_slack = ParseNumber(key, value);
    } else if (key == "codel_target_seconds") {
      config.codel_target_seconds = ParseNumber(key, value);
    } else if (key == "codel_interval_seconds") {
      config.codel_interval_seconds = ParseNumber(key, value);
    } else if (key == "clients") {
      config.clients = ParseCount(key, value);
    } else if (key == "budget_tokens") {
      config.budget_tokens = ParseNumber(key, value);
    } else if (key == "retry_token_cost") {
      config.retry_token_cost = ParseNumber(key, value);
    } else if (key == "success_refund_tokens") {
      config.success_refund_tokens = ParseNumber(key, value);
    } else if (key == "throttle_shed_threshold") {
      config.throttle_shed_threshold = ParseNumber(key, value);
    } else if (key == "throttle_factor") {
      config.throttle_factor = ParseNumber(key, value);
    } else {
      throw std::invalid_argument("storm config: unknown key '" + key + "'");
    }
  }
  return config;
}

TestbedConfig MakeStormTestbedConfig(const StormConfig& storm, bool hardened) {
  TestbedConfig config;
  config.mix = QueryMix::Single(storm.workload);
  config.policy.timeout_seconds = storm.timeout_seconds;
  config.policy.budget_fraction = storm.budget_fraction;
  config.policy.refill_seconds = storm.refill_seconds;
  config.utilization = storm.utilization;
  config.slots = storm.slots;
  config.num_queries = storm.queries;
  config.warmup_queries = storm.warmup;
  config.seed = storm.seed;

  // The storm itself is scheduled, not drawn: both sides replay the exact
  // same crowd and breaker windows.
  config.faults.scheduled_flash_crowds.push_back(
      {storm.crowd_begin_seconds, storm.crowd_end_seconds});
  config.faults.flash_crowd_intensity = storm.crowd_intensity;
  config.faults.scheduled_breaker_trips.push_back(
      {storm.breaker_begin_seconds, storm.breaker_end_seconds});

  // Client behaviour is identical on both sides; only the protections
  // differ.
  config.retry.enabled = true;
  config.retry.max_attempts = storm.max_attempts;
  config.retry.backoff_base_seconds = storm.backoff_base_seconds;
  config.retry.backoff_multiplier = storm.backoff_multiplier;
  config.retry.backoff_jitter_fraction = storm.backoff_jitter_fraction;
  config.retry.abandon_wait_seconds = storm.abandon_wait_seconds;
  config.retry.throttle_shed_threshold = storm.throttle_shed_threshold;
  config.retry.throttle_factor = storm.throttle_factor;

  if (hardened) {
    config.admission.policy = storm.admission_policy;
    config.admission.queue_cap = storm.queue_cap;
    config.admission.deadline_slack = storm.deadline_slack;
    config.admission.codel_target_seconds = storm.codel_target_seconds;
    config.admission.codel_interval_seconds = storm.codel_interval_seconds;
    config.retry.clients = storm.clients;
    config.retry.budget_tokens = storm.budget_tokens;
    config.retry.retry_token_cost = storm.retry_token_cost;
    config.retry.success_refund_tokens = storm.success_refund_tokens;
  } else {
    config.admission.policy = AdmissionPolicy::kNone;
    config.retry.clients = 0;  // unlimited retry budgets
  }
  return config;
}

StormSideStats SummarizeStormSide(const RunTrace& trace) {
  StormSideStats stats;
  stats.goodput = trace.goodput_count;
  stats.badput = trace.badput_count;
  stats.shed = trace.shed_count;
  stats.abandoned = trace.abandoned_count;
  stats.retries = trace.retry_count;
  stats.served = trace.served_count;
  stats.goodput_per_second = trace.goodput_per_second;
  stats.mean_response_time = trace.mean_response_time;
  stats.makespan = trace.makespan;
  return stats;
}

namespace {

// Built-in objectives for the A/B bench: a window is bad when tail
// latency blows past the client abandon threshold or when most offered
// work stops becoming goodput. 60 s windows keep per-window samples
// dense enough for a stable p99 at storm arrival rates.
obs::SloConfig StormSloConfig(const StormConfig& storm) {
  obs::SloConfig slo;
  // The default burn horizons are tuned for 5 s windows; storms run on a
  // much slower clock (mean service ~70 s, arrivals ~1/80 s). 600 s
  // windows hold ~8 responses each, so windowed p99 reflects the queue
  // rather than one unlucky query; the SRE pairs scale with them (short
  // horizons span 5 windows, long ones span dozens) — isolated bad
  // windows (the hardened side absorbing the crowd) stay quiet,
  // sustained collapse (the baseline's metastable tail) pages and stays
  // paging.
  slo.window_seconds = 600.0;
  // Long horizons are sized against the default crowd (6000 s = 10
  // windows): a crowd-length violation burst fills both fast horizons
  // and pages, then ages out and clears; only a violation that outlives
  // the crowd by hours keeps paging.
  slo.burn.fast_short_seconds = 3000.0;
  slo.burn.fast_long_seconds = 7200.0;
  slo.burn.fast_threshold = 14.4;
  slo.burn.slow_short_seconds = 18000.0;
  slo.burn.slow_long_seconds = 54000.0;
  slo.burn.slow_threshold = 6.0;
  obs::SloObjective p99;
  p99.signal = obs::SloSignal::kP99;
  p99.op = obs::SloOp::kLt;
  p99.threshold = storm.abandon_wait_seconds;
  p99.budget = 0.05;
  obs::SloObjective goodput;
  goodput.signal = obs::SloSignal::kGoodputRatio;
  goodput.op = obs::SloOp::kGt;
  goodput.threshold = 0.5;
  goodput.budget = 0.05;
  slo.objectives = {p99, goodput};
  return slo;
}

// Runs one side with a streaming SLO pipeline attached and reports its
// alert telemetry.
StormSideStats RunStormSide(const StormConfig& config, bool hardened) {
  obs::SloPipeline pipeline(StormSloConfig(config));
  TestbedConfig testbed = MakeStormTestbedConfig(config, hardened);
  testbed.slo_sink = &pipeline;
  StormSideStats stats = SummarizeStormSide(Testbed::Run(testbed));
  stats.first_alert_seconds = pipeline.FirstAlertSeconds();
  stats.alert_fires = pipeline.AlertsFired();
  stats.alert_clears = pipeline.AlertsCleared();
  stats.paging_fraction = pipeline.PagingFraction();
  return stats;
}

}  // namespace

StormReport RunStormAB(const StormConfig& config) {
  StormReport report;
  report.config = config;
  report.baseline = RunStormSide(config, false);
  report.hardened = RunStormSide(config, true);
  if (report.baseline.goodput_per_second > 0.0) {
    report.goodput_ratio =
        report.hardened.goodput_per_second / report.baseline.goodput_per_second;
  } else {
    // A fully collapsed baseline: any hardened goodput is an infinite
    // improvement; keep the report printable.
    report.goodput_ratio =
        report.hardened.goodput_per_second > 0.0 ? 1e9 : 1.0;
  }
  return report;
}

namespace {

void AppendSide(std::string& out, const char* name, AdmissionPolicy policy,
                size_t clients, const StormSideStats& s) {
  char line[256];
  std::snprintf(line, sizeof(line), "side %s admission=%s clients=%zu\n", name,
                ToString(policy).c_str(), clients);
  out += line;
  std::snprintf(line, sizeof(line), "  goodput_per_second %.6f\n",
                s.goodput_per_second);
  out += line;
  std::snprintf(line, sizeof(line),
                "  goodput %zu badput %zu shed %zu abandoned %zu retries %zu "
                "served %zu\n",
                s.goodput, s.badput, s.shed, s.abandoned, s.retries, s.served);
  out += line;
  std::snprintf(line, sizeof(line),
                "  mean_response_time %.6f makespan %.6f\n",
                s.mean_response_time, s.makespan);
  out += line;
  std::snprintf(line, sizeof(line),
                "  slo first_alert %.6f fires %zu clears %zu paging %.6f\n",
                s.first_alert_seconds, s.alert_fires, s.alert_clears,
                s.paging_fraction);
  out += line;
}

}  // namespace

std::string FormatStormReport(const StormReport& report) {
  const StormConfig& c = report.config;
  std::string out = "# msprint storm v1\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "workload %s seed %llu queries %zu warmup %zu utilization "
                "%.6f slots %d\n",
                ToString(c.workload).c_str(),
                static_cast<unsigned long long>(c.seed), c.queries, c.warmup,
                c.utilization, c.slots);
  out += line;
  std::snprintf(line, sizeof(line),
                "crowd [%.6f, %.6f) x%.6f breaker [%.6f, %.6f)\n",
                c.crowd_begin_seconds, c.crowd_end_seconds, c.crowd_intensity,
                c.breaker_begin_seconds, c.breaker_end_seconds);
  out += line;
  std::snprintf(line, sizeof(line),
                "clients max_attempts %zu backoff %.6f x%.6f jitter %.6f "
                "abandon %.6f\n",
                c.max_attempts, c.backoff_base_seconds, c.backoff_multiplier,
                c.backoff_jitter_fraction, c.abandon_wait_seconds);
  out += line;
  AppendSide(out, "baseline", AdmissionPolicy::kNone, 0, report.baseline);
  AppendSide(out, "hardened", c.admission_policy, c.clients, report.hardened);
  std::snprintf(line, sizeof(line), "goodput_ratio %.6f\n",
                report.goodput_ratio);
  out += line;
  return out;
}

}  // namespace robust
}  // namespace msprint
