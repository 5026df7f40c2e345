#include "src/obs/whatif/whatif.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/persist/persist.h"

namespace msprint {
namespace whatif {

namespace {

constexpr const char* kKnobNames[kNumKnobs] = {
    "toggle-latency", "service-rate",  "sprint-rate", "sprint-timeout",
    "breaker-cooldown", "retry-backoff", "admission",   "slo-window",
};

bool ValidDelta(double delta) {
  return std::isfinite(delta) && delta > -1.0 && delta != 0.0;
}

}  // namespace

std::string ToString(Knob knob) {
  const size_t i = static_cast<size_t>(knob);
  return i < kNumKnobs ? kKnobNames[i] : "unknown";
}

bool ParseKnob(std::string_view name, Knob* out) {
  for (size_t i = 0; i < kNumKnobs; ++i) {
    if (name == kKnobNames[i]) {
      *out = static_cast<Knob>(i);
      return true;
    }
  }
  return false;
}

bool Applicable(const Scenario& scenario, Knob knob) {
  const bool slo_on =
      scenario.evaluate_slo && !scenario.slo.objectives.empty();
  if (scenario.engine == Engine::kSim) {
    switch (knob) {
      case Knob::kServiceRate:
      case Knob::kSprintRate:
      case Knob::kSprintTimeout:
        return true;
      case Knob::kAdmission:
        return scenario.sim.admission.Enabled();
      case Knob::kSloWindow:
        return slo_on;
      default:
        // Toggle latency, breakers and client retries are testbed-only
        // dynamics; the first-principles simulator has no such state.
        return false;
    }
  }
  const TestbedConfig& tb = scenario.testbed;
  switch (knob) {
    case Knob::kToggleLatency:
    case Knob::kSprintRate:
      return !tb.disable_sprinting;
    case Knob::kServiceRate:
      return true;
    case Knob::kSprintTimeout:
      return !tb.disable_sprinting && !tb.force_full_sprint;
    case Knob::kBreakerCooldown:
      return !tb.disable_sprinting && !tb.force_full_sprint &&
             (tb.faults.breaker_trips_per_hour > 0.0 ||
              !tb.faults.scheduled_breaker_trips.empty());
    case Knob::kRetryBackoff:
      return tb.retry.enabled;
    case Knob::kAdmission:
      return tb.admission.Enabled();
    case Knob::kSloWindow:
      return slo_on;
  }
  return false;
}

void ApplyKnob(Scenario& scenario, Knob knob, double delta) {
  const double scale = 1.0 + delta;
  if (knob == Knob::kSloWindow) {
    scenario.slo.window_seconds *= scale;
    return;
  }
  if (scenario.engine == Engine::kSim) {
    SimConfig& sim = scenario.sim;
    switch (knob) {
      case Knob::kServiceRate:
        // A (1+δ)x faster service rate shrinks every service time.
        sim.service_time_scale *= 1.0 / scale;
        return;
      case Knob::kSprintRate:
        sim.sprint_speedup *= scale;
        return;
      case Knob::kSprintTimeout:
        sim.timeout_seconds *= scale;
        return;
      case Knob::kAdmission:
        break;  // shared admission perturbation below
      default:
        return;  // inapplicable; PlanExperiments filtered these out
    }
    robust::AdmissionConfig& adm = sim.admission;
    switch (adm.policy) {
      case robust::AdmissionPolicy::kQueueCap:
        adm.queue_cap = std::max<size_t>(
            1, static_cast<size_t>(
                   static_cast<double>(adm.queue_cap) * scale + 0.5));
        break;
      case robust::AdmissionPolicy::kDeadlineAware:
        adm.deadline_slack *= scale;
        break;
      case robust::AdmissionPolicy::kCoDel:
        adm.codel_target_seconds *= scale;
        break;
      default:
        break;
    }
    return;
  }
  TestbedConfig& tb = scenario.testbed;
  switch (knob) {
    case Knob::kToggleLatency:
      tb.toggle_latency_scale *= scale;
      return;
    case Knob::kServiceRate:
      tb.service_time_scale *= 1.0 / scale;
      return;
    case Knob::kSprintRate:
      tb.sprint_boost *= scale;
      return;
    case Knob::kSprintTimeout:
      tb.policy.timeout_seconds *= scale;
      return;
    case Knob::kBreakerCooldown:
      tb.faults.breaker_cooldown_seconds *= scale;
      return;
    case Knob::kRetryBackoff:
      tb.retry.backoff_base_seconds *= scale;
      return;
    case Knob::kAdmission: {
      robust::AdmissionConfig& adm = tb.admission;
      switch (adm.policy) {
        case robust::AdmissionPolicy::kQueueCap:
          adm.queue_cap = std::max<size_t>(
              1, static_cast<size_t>(
                     static_cast<double>(adm.queue_cap) * scale + 0.5));
          break;
        case robust::AdmissionPolicy::kDeadlineAware:
          adm.deadline_slack *= scale;
          break;
        case robust::AdmissionPolicy::kCoDel:
          adm.codel_target_seconds *= scale;
          break;
        default:
          break;
      }
      return;
    }
    case Knob::kSloWindow:
      return;  // handled above
  }
}

std::vector<Knob> AllKnobs() {
  std::vector<Knob> knobs;
  knobs.reserve(kNumKnobs);
  for (size_t i = 0; i < kNumKnobs; ++i) {
    knobs.push_back(static_cast<Knob>(i));
  }
  return knobs;
}

Plan PlanExperiments(const Scenario& scenario, const std::vector<Knob>& knobs,
                     const std::vector<double>& deltas) {
  if (knobs.empty()) {
    throw std::invalid_argument("whatif plan: no knobs requested");
  }
  if (deltas.empty()) {
    throw std::invalid_argument("whatif plan: empty delta grid");
  }
  for (double d : deltas) {
    if (!ValidDelta(d)) {
      throw std::invalid_argument(
          "whatif plan: delta must be finite, > -1 and nonzero, got " +
          obs::StableDouble(d));
    }
  }
  Plan plan;
  for (Knob knob : knobs) {
    if (!Applicable(scenario, knob)) {
      plan.skipped.push_back(knob);
      continue;
    }
    for (double d : deltas) {
      plan.experiments.push_back(Experiment{knob, d});
    }
  }
  return plan;
}

double MeanSecondsFromTicks(double total_ticks, uint64_t queries) {
  if (queries == 0) {
    return 0.0;
  }
  return total_ticks / static_cast<double>(queries) /
         obs::kSpanTicksPerSecond;
}

double ComponentScale(Knob knob, double delta, size_t component) {
  const auto c = static_cast<obs::SpanComponent>(component);
  switch (knob) {
    case Knob::kToggleLatency:
      return c == obs::SpanComponent::kToggleOverhead ? 1.0 + delta : 1.0;
    case Knob::kServiceRate:
      // A faster sustained rate shrinks service work and everything
      // proportional to it (load interference, fault inflation).
      return (c == obs::SpanComponent::kService ||
              c == obs::SpanComponent::kInterference ||
              c == obs::SpanComponent::kFaultDelay)
                 ? 1.0 / (1.0 + delta)
                 : 1.0;
    case Knob::kSprintRate:
      // kSprintDelta is signed (negative = time saved); scaling it by
      // (1+δ) deepens the saving linearly.
      return c == obs::SpanComponent::kSprintDelta ? 1.0 + delta : 1.0;
    case Knob::kRetryBackoff:
      // First-order overestimate: backoff scales the whole retry-wait
      // component even though only the backoff slice (not the failed
      // attempts' service) stretches. The error column shows the gap.
      return c == obs::SpanComponent::kRetryBackoff ? 1.0 + delta : 1.0;
    case Knob::kSprintTimeout:
    case Knob::kBreakerCooldown:
    case Knob::kAdmission:
    case Knob::kSloWindow:
      // Behavioral knobs: a linear span model predicts no change (the
      // knob gates *which* events happen, not how long one takes). The
      // prediction is the base objective; the error column IS the
      // measured behavioral sensitivity.
      return 1.0;
  }
  return 1.0;
}

double PredictedMeanSeconds(const Measurement& base, Knob knob,
                            double delta) {
  double total = static_cast<double>(base.total_response_ticks);
  for (size_t c = 0; c < obs::kNumSpanComponents; ++c) {
    const double g = ComponentScale(knob, delta, c);
    if (g != 1.0) {
      total += (g - 1.0) * static_cast<double>(base.component_ticks[c]);
    }
  }
  return MeanSecondsFromTicks(total, base.queries);
}

namespace {

void SummarizeSpans(const std::vector<obs::QuerySpan>& spans,
                    Measurement& m) {
  m.queries = spans.size();
  m.total_response_ticks = 0;
  m.component_ticks.fill(0);
  for (const obs::QuerySpan& span : spans) {
    m.total_response_ticks += span.ResponseTicks();
    for (size_t c = 0; c < obs::kNumSpanComponents; ++c) {
      m.component_ticks[c] += span.components[c];
    }
  }
  m.mean_response_seconds = MeanSecondsFromTicks(
      static_cast<double>(m.total_response_ticks), m.queries);
}

// One (re)run with worker-local sinks: its own span collector and, when
// objectives are evaluated, its own SLO pipeline fed live by the engine —
// the same feed `msprint slo` reads.
Measurement RunOne(const Scenario& scenario) {
  std::optional<obs::SloPipeline> slo;
  if (scenario.evaluate_slo) {
    slo.emplace(scenario.slo);
  }
  obs::SloPipeline* const slo_sink = slo ? &*slo : nullptr;
  obs::SpanCollector spans;
  Measurement m;
  if (scenario.engine == Engine::kSim) {
    SimConfig config = scenario.sim;
    config.span_sink = &spans;
    config.slo_sink = slo_sink;
    const SimResult result = SimulateQueue(config);
    m.p50_seconds = result.PercentileResponseTime(0.5);
    m.p99_seconds = result.PercentileResponseTime(0.99);
    m.goodput_per_second =
        result.makespan > 0.0
            ? static_cast<double>(result.response_times.size()) /
                  result.makespan
            : 0.0;
  } else {
    TestbedConfig config = scenario.testbed;
    config.span_sink = &spans;
    config.slo_sink = slo_sink;
    const RunTrace trace = Testbed::Run(config);
    m.p50_seconds = trace.PercentileResponseTime(0.5);
    m.p99_seconds = trace.PercentileResponseTime(0.99);
    m.goodput_per_second = trace.goodput_per_second;
  }
  SummarizeSpans(spans.TakeSpans(), m);
  if (slo) {
    m.slo_alerts_fired = slo->AlertsFired();
    for (const obs::SloObjectiveState& st : slo->objective_states()) {
      m.slo_bad_windows += st.bad_windows;
    }
    m.slo_burned_through = slo->BurnedThrough();
  }
  return m;
}

// Recomputes every derived column (predictions, errors, gains, ranking)
// from base + per-experiment measurements. Shared by the executor and the
// persistence loader so a parsed report is arithmetically — and therefore
// byte-for-byte — identical to the one that was saved.
void FinalizeReport(Report& report) {
  const double base_mean = report.base.mean_response_seconds;
  for (ExperimentResult& r : report.experiments) {
    r.predicted_mean_seconds =
        PredictedMeanSeconds(report.base, r.knob, r.delta);
    r.measured_mean_seconds = r.measured.mean_response_seconds;
    r.error_seconds = r.predicted_mean_seconds - r.measured_mean_seconds;
    r.gain_seconds = base_mean - r.measured_mean_seconds;
    r.gain_per_unit_delta = r.gain_seconds / std::fabs(r.delta);
  }
  report.ranking.clear();
  for (size_t k = 0; k < kNumKnobs; ++k) {
    const Knob knob = static_cast<Knob>(k);
    bool seen = false;
    KnobRank rank;
    rank.knob = knob;
    for (const ExperimentResult& r : report.experiments) {
      if (r.knob != knob) {
        continue;
      }
      if (!seen || r.gain_per_unit_delta > rank.best_gain_per_unit) {
        rank.best_delta = r.delta;
        rank.best_gain_per_unit = r.gain_per_unit_delta;
      }
      seen = true;
    }
    if (seen) {
      report.ranking.push_back(rank);
    }
  }
  std::stable_sort(report.ranking.begin(), report.ranking.end(),
                   [](const KnobRank& a, const KnobRank& b) {
                     return a.best_gain_per_unit > b.best_gain_per_unit;
                   });
}

}  // namespace

double Report::BestRelativeGain() const {
  const double base_mean = base.mean_response_seconds;
  if (!(base_mean > 0.0) || !std::isfinite(base_mean)) {
    return 0.0;
  }
  double best = 0.0;
  for (const ExperimentResult& r : experiments) {
    best = std::max(best, r.gain_seconds / base_mean);
  }
  return best;
}

Report RunWhatif(const Scenario& scenario, const Plan& plan,
                 ThreadPool* pool) {
  // Mask any live observability session for the fan-out: the global
  // registry and recorder are serial-only, and every experiment collects
  // through its own span and SLO sinks instead.
  obs::ObsSession mask(nullptr, nullptr);

  const size_t n = plan.experiments.size() + 1;  // slot 0 = base run
  std::vector<Measurement> slots(n);
  ResolvePool(pool).ParallelFor(n, [&](size_t i) {
    Scenario local = scenario;
    if (i > 0) {
      const Experiment& exp = plan.experiments[i - 1];
      ApplyKnob(local, exp.knob, exp.delta);
    }
    slots[i] = RunOne(local);  // slot i only; merged in index order below
  });

  Report report;
  report.evaluate_slo = scenario.evaluate_slo;
  report.base = slots[0];
  report.experiments.resize(plan.experiments.size());
  for (size_t i = 0; i < plan.experiments.size(); ++i) {
    report.experiments[i].knob = plan.experiments[i].knob;
    report.experiments[i].delta = plan.experiments[i].delta;
    report.experiments[i].measured = slots[i + 1];
  }
  FinalizeReport(report);
  return report;
}

namespace {

void AppendCounter(std::string& out, const std::string& name,
                   uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out += "counter " + name + " " + buf + "\n";
}

void AppendGauge(std::string& out, const std::string& name, double value) {
  out += "gauge " + name + " " + obs::StableDouble(value) + "\n";
}

std::string ExperimentKey(const ExperimentResult& r) {
  return "whatif/" + ToString(r.knob) + "/d" + obs::StableDouble(r.delta);
}

}  // namespace

std::string FormatReport(const Report& report) {
  std::string out;
  out.reserve(4096);
  char buf[256];
  out += "# msprint whatif v1\n";
  std::snprintf(buf, sizeof(buf),
                "# base queries=%" PRIu64
                " mean=%.6f p50=%.6f p99=%.6f goodput=%.6f",
                report.base.queries, report.base.mean_response_seconds,
                report.base.p50_seconds, report.base.p99_seconds,
                report.base.goodput_per_second);
  out += buf;
  if (report.evaluate_slo) {
    std::snprintf(buf, sizeof(buf), " slo_alerts=%" PRIu64,
                  report.base.slo_alerts_fired);
    out += buf;
  }
  out += "\n";
  out +=
      "# knob               delta    predicted     measured        error"
      "         gain  gain/|delta|\n";
  for (const ExperimentResult& r : report.experiments) {
    std::snprintf(buf, sizeof(buf),
                  "# %-16s %+8.4f %12.6f %12.6f %12.6f %12.6f %13.6f\n",
                  ToString(r.knob).c_str(), r.delta,
                  r.predicted_mean_seconds, r.measured_mean_seconds,
                  r.error_seconds, r.gain_seconds, r.gain_per_unit_delta);
    out += buf;
  }
  out += "# ranking (best marginal gain per unit virtual speedup):\n";
  for (size_t i = 0; i < report.ranking.size(); ++i) {
    const KnobRank& rank = report.ranking[i];
    std::snprintf(buf, sizeof(buf),
                  "#   %zu. %-16s best_delta=%+.4f gain_per_unit=%.6f\n",
                  i + 1, ToString(rank.knob).c_str(), rank.best_delta,
                  rank.best_gain_per_unit);
    out += buf;
  }
  AppendCounter(out, "whatif/experiments", report.experiments.size());
  AppendCounter(out, "whatif/base/queries", report.base.queries);
  AppendGauge(out, "whatif/base/mean_response_s",
              report.base.mean_response_seconds);
  AppendGauge(out, "whatif/base/p50_s", report.base.p50_seconds);
  AppendGauge(out, "whatif/base/p99_s", report.base.p99_seconds);
  AppendGauge(out, "whatif/base/goodput_per_s",
              report.base.goodput_per_second);
  if (report.evaluate_slo) {
    AppendCounter(out, "whatif/base/slo_alerts",
                  report.base.slo_alerts_fired);
    AppendCounter(out, "whatif/base/slo_bad_windows",
                  report.base.slo_bad_windows);
  }
  for (const ExperimentResult& r : report.experiments) {
    const std::string key = ExperimentKey(r);
    AppendGauge(out, key + "/predicted_mean_s", r.predicted_mean_seconds);
    AppendGauge(out, key + "/measured_mean_s", r.measured_mean_seconds);
    AppendGauge(out, key + "/error_s", r.error_seconds);
    AppendGauge(out, key + "/p99_s", r.measured.p99_seconds);
    AppendGauge(out, key + "/goodput_per_s",
                r.measured.goodput_per_second);
    if (report.evaluate_slo) {
      AppendCounter(out, key + "/slo_alerts", r.measured.slo_alerts_fired);
    }
  }
  return out;
}

namespace {

void AppendMeasurementJson(std::string& out, const Measurement& m,
                           bool with_slo) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"queries\":%" PRIu64, m.queries);
  out += buf;
  out += ",\"mean_response_s\":" + obs::StableDouble(m.mean_response_seconds);
  out += ",\"p50_s\":" + obs::StableDouble(m.p50_seconds);
  out += ",\"p99_s\":" + obs::StableDouble(m.p99_seconds);
  out += ",\"goodput_per_s\":" + obs::StableDouble(m.goodput_per_second);
  if (with_slo) {
    std::snprintf(buf, sizeof(buf),
                  ",\"slo_alerts\":%" PRIu64 ",\"slo_bad_windows\":%" PRIu64
                  ",\"slo_burned_through\":%s",
                  m.slo_alerts_fired, m.slo_bad_windows,
                  m.slo_burned_through ? "true" : "false");
    out += buf;
  }
}

}  // namespace

std::string FormatReportJsonl(const Report& report) {
  std::string out;
  out.reserve(2048);
  out += "{\"kind\":\"base\",";
  AppendMeasurementJson(out, report.base, report.evaluate_slo);
  out += "}\n";
  for (const ExperimentResult& r : report.experiments) {
    out += "{\"kind\":\"experiment\",\"knob\":\"" + ToString(r.knob) +
           "\",\"delta\":" + obs::StableDouble(r.delta) +
           ",\"predicted_mean_s\":" +
           obs::StableDouble(r.predicted_mean_seconds) +
           ",\"error_s\":" + obs::StableDouble(r.error_seconds) +
           ",\"gain_s\":" + obs::StableDouble(r.gain_seconds) +
           ",\"gain_per_unit\":" + obs::StableDouble(r.gain_per_unit_delta) +
           ",";
    AppendMeasurementJson(out, r.measured, report.evaluate_slo);
    out += "}\n";
  }
  return out;
}

// ------------------------------------------------------------ persistence

namespace {

constexpr char kManifestSection[] = "whatif-manifest";
constexpr char kResultsSection[] = "whatif-results";

// Serialized Measurement size: queries u64 + total i64 + 7 component i64 +
// 4 f64 + 2 u64 + bool.
constexpr size_t kMeasurementBytes = 8 + 8 + 7 * 8 + 4 * 8 + 2 * 8 + 1;

void PutMeasurement(persist::Writer& w, const Measurement& m) {
  w.PutU64(m.queries);
  w.PutI64(m.total_response_ticks);
  for (int64_t t : m.component_ticks) {
    w.PutI64(t);
  }
  w.PutF64(m.mean_response_seconds);
  w.PutF64(m.p50_seconds);
  w.PutF64(m.p99_seconds);
  w.PutF64(m.goodput_per_second);
  w.PutU64(m.slo_alerts_fired);
  w.PutU64(m.slo_bad_windows);
  w.PutBool(m.slo_burned_through);
}

Measurement GetMeasurement(persist::Reader& r) {
  Measurement m;
  m.queries = r.GetU64();
  m.total_response_ticks = r.GetI64();
  for (int64_t& t : m.component_ticks) {
    t = r.GetI64();
  }
  m.mean_response_seconds = r.GetFiniteF64("whatif mean response");
  m.p50_seconds = r.GetFiniteF64("whatif p50");
  m.p99_seconds = r.GetFiniteF64("whatif p99");
  m.goodput_per_second = r.GetFiniteF64("whatif goodput");
  m.slo_alerts_fired = r.GetU64();
  m.slo_bad_windows = r.GetU64();
  m.slo_burned_through = r.GetBool();
  return m;
}

persist::RecordWriter BuildRecord(const Report& report) {
  persist::Writer manifest;
  manifest.PutBool(report.evaluate_slo);
  manifest.PutU64(report.experiments.size());
  for (const ExperimentResult& r : report.experiments) {
    manifest.PutU8(static_cast<uint8_t>(r.knob));
    manifest.PutF64(r.delta);
  }

  persist::Writer results;
  PutMeasurement(results, report.base);
  results.PutU64(report.experiments.size());
  for (const ExperimentResult& r : report.experiments) {
    PutMeasurement(results, r.measured);
  }

  persist::RecordWriter record;
  record.AddSection(kManifestSection, manifest.Take());
  record.AddSection(kResultsSection, results.Take());
  return record;
}

Report ParseRecord(const persist::RecordReader& record) {
  Report report;

  persist::Reader manifest(record.Section(kManifestSection));
  report.evaluate_slo = manifest.GetBool();
  const uint64_t count = manifest.GetCount(9, "whatif experiments");
  report.experiments.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint8_t knob = manifest.GetU8();
    if (knob >= kNumKnobs) {
      throw persist::PersistError(persist::ErrorCode::kFormat,
                                  "whatif manifest: unknown knob id");
    }
    const double delta = manifest.GetFiniteF64("whatif delta");
    if (!ValidDelta(delta)) {
      throw persist::PersistError(persist::ErrorCode::kFormat,
                                  "whatif manifest: invalid delta");
    }
    report.experiments[i].knob = static_cast<Knob>(knob);
    report.experiments[i].delta = delta;
  }
  manifest.ExpectEnd();

  persist::Reader results(record.Section(kResultsSection));
  report.base = GetMeasurement(results);
  const uint64_t result_count =
      results.GetCount(kMeasurementBytes, "whatif results");
  if (result_count != count) {
    throw persist::PersistError(
        persist::ErrorCode::kFormat,
        "whatif results: experiment count mismatch with manifest");
  }
  for (uint64_t i = 0; i < result_count; ++i) {
    report.experiments[i].measured = GetMeasurement(results);
  }
  results.ExpectEnd();

  FinalizeReport(report);
  return report;
}

}  // namespace

std::string SerializeReport(const Report& report) {
  return BuildRecord(report).Seal();
}

Report ParseReport(const std::string& bytes) {
  return ParseRecord(persist::RecordReader::Parse(bytes));
}

void SaveReportToFile(const std::string& path, const Report& report) {
  persist::WriteRecordToFile(path, BuildRecord(report));
}

Report LoadReportFromFile(const std::string& path) {
  return ParseRecord(persist::ReadRecordFromFile(path));
}

}  // namespace whatif
}  // namespace msprint
