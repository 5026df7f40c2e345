// msprint_perfbench: runs one workload in this process and prints its
// metrics; the last line of stdout is the JSON result. perfbench/run.py
// builds this binary and is the benchmark's entry point.
//
//   msprint_perfbench --workload model_build|policy_search|serve_storm
//                     --seed N --seconds S --trace 0|1
//                     --storm FILE [--spans FILE]

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/obs/obs.h"
#include "src/persist/persist.h"

namespace msprint {
namespace perfbench {
namespace {

constexpr size_t kSetUps = 3;
constexpr size_t kMaxThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string storm;
  std::string spans;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("flag " + flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--storm") {
      args.storm = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) {
    throw std::invalid_argument("--workload and a positive --seconds needed");
  }
  return args;
}

std::string Num(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

// The ops of one pass, in order.
struct Phase {
  std::vector<std::string> kinds;  // "" when the op threw
  std::vector<double> seconds;     // host latency per op
  std::vector<std::string> errors;
  double wall = 0.0;

  size_t size() const { return seconds.size(); }
  double OpsPerSecond() const {
    double busy = 0.0;
    for (double s : seconds) {
      busy += s;
    }
    return static_cast<double>(size()) / busy;
  }
  double P50Ms() const { return 1e3 * Median(seconds); }
};

// One closed-loop client: runs op 0, 1, ... until `min_ops` are done and
// `seconds` have passed.
Phase RunOps(Workload& workload, Tracer* tracer, size_t min_ops,
             double seconds) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < min_ops || SecondsSince(start) < seconds; ++i) {
    const Clock::time_point op_start = Clock::now();
    std::string kind;
    try {
      Span span(tracer, "op", i);
      kind = workload.RunOp(i, tracer);
    } catch (const std::exception& e) {
      phase.errors.push_back("op " + std::to_string(i) + " threw: " +
                             e.what());
    }
    phase.seconds.push_back(SecondsSince(op_start));
    phase.kinds.push_back(kind);
  }
  phase.wall = SecondsSince(start);
  return phase;
}

// Checks every op of `phase` that returned; failures land in its errors.
void CheckOps(const Workload& workload, Phase& phase) {
  for (size_t i = 0; i < phase.size(); ++i) {
    if (phase.kinds[i].empty()) {
      continue;  // already counted as thrown
    }
    const std::string problem = workload.Check(i);
    if (!problem.empty()) {
      phase.errors.push_back("op " + std::to_string(i) + ": " + problem);
    }
  }
}

uint64_t Digest(const Workload& workload, size_t n) {
  std::string bytes;
  for (size_t i = 0; i < n; ++i) {
    workload.AppendOutput(i, bytes);
  }
  return persist::Fingerprint64(bytes);
}

std::string Hex(uint64_t value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

// Prints each op kind's median latency and the highest of p99/p90/p75
// that has at least ten samples beyond it.
void PrintLatencies(const Phase& phase, std::ostream& out) {
  std::vector<std::string> kinds;
  for (const std::string& kind : phase.kinds) {
    if (!kind.empty() &&
        std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) {
      kinds.push_back(kind);
    }
  }
  for (const std::string& kind : kinds) {
    std::vector<double> ms;
    for (size_t i = 0; i < phase.size(); ++i) {
      if (phase.kinds[i] == kind) {
        ms.push_back(1e3 * phase.seconds[i]);
      }
    }
    out << kind << "_p50_ms " << Num(Median(ms)) << " (n=" << ms.size()
        << ")\n";
    for (int pct : {99, 90, 75}) {
      if (static_cast<double>(ms.size()) * (100 - pct) / 100.0 >= 10.0) {
        out << kind << "_p" << pct << "_ms "
            << Num(Quantile(ms, pct / 100.0)) << " (n=" << ms.size()
            << ")\n";
        break;
      }
    }
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Span totals of one traced pass, keyed by span name.
struct SpanTotals {
  std::map<std::string, double> busy, self, calls;
  std::map<std::string, double> attrs;     // "<span>.<attr>"
  std::map<std::string, double> counters;  // "<span>|<counter>"
  std::vector<double> predict_ms;

  explicit SpanTotals(const std::vector<SpanRecord>& spans) {
    const std::vector<double> self_times = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      const std::string name = span.name;
      busy[name] += span.duration();
      self[name] += self_times[i];
      calls[name] += 1.0;
      for (const auto& [attr, value] : span.attrs) {
        attrs[name + "." + attr] += value;
      }
      for (size_t c = 0; c < kTracedCounters.size(); ++c) {
        counters[name + "|" + kTracedCounters[c]] +=
            static_cast<double>(span.counters[c]);
      }
      if (name == "predict") {
        predict_ms.push_back(1e3 * span.duration());
      }
    }
  }
};

double At(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Host time spent in calls (spans other than op and predict) that ran
// `counter` work in the counting pass, measured in the timing pass.
double BusyBehind(const SpanTotals& timing, const SpanTotals& counting,
                  const std::string& counter) {
  double busy = 0.0;
  for (const auto& [name, seconds] : timing.busy) {
    if (name != "op" && name != "predict" &&
        At(counting.counters, name + "|" + counter) > 0.0) {
      busy += seconds;
    }
  }
  return busy;
}

// Per-layer metrics of a traced run. Times come from the timing pass
// (spans only); counts come from the counting pass, which also had the
// registry attached. Count totals are the deltas summed over op spans.
MetricMap LayerMetrics(const SpanTotals& timing, const SpanTotals& counting,
                       const obs::MetricsRegistry& registry,
                       double counting_wall, size_t threads) {
  auto busy = [&](const char* name) { return At(timing.busy, name); };
  auto attr = [&](const char* key) { return At(timing.attrs, key); };
  auto count = [&](const std::string& span, const char* counter) {
    return At(counting.counters, span + "|" + counter);
  };
  auto total = [&](const char* counter) { return count("op", counter); };

  MetricMap m;
  m["profiler.busy_s"] = {busy("profile"), "s"};
  m["profiler.rows"] = {attr("profile.rows"), "count"};
  // Read from the ops' outputs by model_build's AddLayerMetrics.
  m["profiler.hours"] = {0.0, "h"};
  m["calibrate.clamped_rows"] = {0.0, "count"};
  m["evaluate.error_p50"] = {0.0, "ratio"};
  m["testbed.runs"] = {total("testbed/runs"), "count"};
  m["testbed.queries"] = {total("testbed/queries"), "count"};
  m["testbed.ns_per_query"] = {
      1e9 * Ratio(BusyBehind(timing, counting, "testbed/queries"),
                  total("testbed/queries")),
      "ns"};
  const double cal_rows = attr("calibrate.rows");
  const double cal_runs = count("calibrate", "sim/runs");
  m["calibrate.busy_s"] = {busy("calibrate"), "s"};
  m["calibrate.rows"] = {cal_rows, "count"};
  m["calibrate.sim_runs"] = {cal_runs, "count"};
  m["calibrate.sim_queries"] = {count("calibrate", "sim/queries"), "count"};
  m["calibrate.sim_runs_per_row"] = {Ratio(cal_runs, cal_rows), "ratio"};
  m["sim.ns_per_query"] = {
      1e9 * Ratio(BusyBehind(timing, counting, "sim/queries"),
                  total("sim/queries")),
      "ns"};
  m["train.busy_s"] = {busy("train"), "s"};
  m["evaluate.busy_s"] = {busy("evaluate"), "s"};
  m["evaluate.cases"] = {attr("evaluate.cases"), "count"};
  m["predict.calls"] = {At(timing.calls, "predict"), "count"};
  m["predict.busy_s"] = {busy("predict"), "s"};
  m["predict.p50_ms"] = {
      timing.predict_ms.empty() ? 0.0 : Median(timing.predict_ms), "ms"};
  // Every simulated query inside these calls comes from a prediction.
  m["predict.sim_queries"] = {count("evaluate", "sim/queries") +
                                  count("sweep", "sim/queries") +
                                  count("explore", "sim/queries"),
                              "count"};
  m["sweep.busy_s"] = {busy("sweep"), "s"};
  const double accepted = count("explore", "explore/accepted");
  const double rejected = count("explore", "explore/rejected");
  m["explore.busy_s"] = {busy("explore"), "s"};
  m["explore.self_s"] = {At(timing.self, "explore"), "s"};
  m["explore.steps"] = {accepted + rejected, "count"};
  m["explore.accept_ratio"] = {Ratio(accepted, accepted + rejected), "ratio"};
  const double goodput = total("robust/goodput");
  m["storm.busy_s"] = {busy("storm"), "s"};
  m["robust.shed"] = {total("robust/shed"), "count"};
  m["robust.retries"] = {total("robust/retries"), "count"};
  m["robust.abandoned"] = {total("robust/abandoned"), "count"};
  m["robust.goodput_ratio"] = {
      Ratio(goodput, goodput + total("robust/badput")), "ratio"};

  double task_seconds = 0.0;
  for (const obs::HistogramSnapshot& h : registry.Snapshot(true).histograms) {
    if (h.name == "pool/task_latency_seconds") {
      task_seconds = h.approx_mean * static_cast<double>(h.count);
    }
  }
  m["pool.tasks"] = {total("pool/tasks_submitted"), "count"};
  m["pool.busy_frac"] = {
      Ratio(task_seconds, counting_wall * static_cast<double>(threads)),
      "ratio"};
  return m;
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const MetricMap& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << Num(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void PrintErrors(const Phase& phase) {
  for (size_t i = 0; i < phase.errors.size() && i < 5; ++i) {
    std::cout << "FAILED " << phase.errors[i] << '\n';
  }
}

int Run(const Args& args) {
  const size_t threads = std::min<size_t>(
      kMaxThreads, std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool::SetGlobalSize(threads);
  ThreadPool::Global().ParallelFor(4096, [](size_t) {});  // warm the pool

  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.storm);
  std::vector<double> setups;
  for (size_t r = 0; r < kSetUps; ++r) {
    const Clock::time_point start = Clock::now();
    workload->SetUp();
    setups.push_back(SecondsSince(start));
  }
  const double setup_s = Median(setups);
  const size_t fixed = workload->FixedOps();
  std::cout << "workload " << args.workload << " seed " << args.seed
            << " threads " << threads << " trace " << args.trace << '\n';
  std::cout << "setup_s " << Num(setup_s) << " (median of " << kSetUps
            << ")\n";

  if (!args.trace) {
    Phase phase = RunOps(*workload, nullptr, fixed, args.seconds);
    CheckOps(*workload, phase);
    PrintLatencies(phase, std::cout);
    workload->Summarize(phase.size(), phase.seconds, std::cout);
    const size_t failed = phase.errors.size();
    std::cout << "ops " << phase.size() << " in " << Num(phase.wall)
              << " s\n";
    std::cout << "failed_frac " << Num(static_cast<double>(failed) /
                                       static_cast<double>(phase.size()))
              << '\n';
    std::cout << "digest " << Hex(Digest(*workload, fixed)) << " (ops 0.."
              << fixed - 1 << ")\n";
    PrintErrors(phase);
    MetricMap metrics;
    metrics["setup_s"] = {setup_s, "s"};
    metrics["op_p50_ms"] = {phase.P50Ms(), "ms"};
    metrics["ops_per_s"] = {phase.OpsPerSecond(), "1/s"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    PrintJson(failed == 0, phase.size(), failed, metrics);
    return 0;
  }

  // Traced run: the fixed prefix three times — untraced, with spans only
  // (the timing pass) and with spans plus the metrics registry (the
  // counting pass). Every pass must produce the same simulated outputs.
  Phase untraced = RunOps(*workload, nullptr, fixed, 0.0);
  CheckOps(*workload, untraced);
  const uint64_t digest = Digest(*workload, fixed);

  Tracer timing_tracer(nullptr);
  Phase timing = RunOps(*workload, &timing_tracer, fixed, 0.0);
  CheckOps(*workload, timing);
  if (Digest(*workload, fixed) != digest) {
    timing.errors.push_back("timing pass outputs differ from untraced ones");
  }

  obs::MetricsRegistry registry;
  Tracer counting_tracer(&registry);
  Phase counting;
  {
    obs::ObsSession session(&registry, nullptr);
    counting = RunOps(*workload, &counting_tracer, fixed, 0.0);
  }
  CheckOps(*workload, counting);
  if (Digest(*workload, fixed) != digest) {
    counting.errors.push_back(
        "counting pass outputs differ from untraced ones");
  }

  const std::vector<SpanRecord> spans = timing_tracer.spans();
  if (!args.spans.empty()) {
    WriteSpans(spans, args.spans);
  }
  const SpanTotals timing_totals(spans);
  MetricMap layers =
      LayerMetrics(timing_totals, SpanTotals(counting_tracer.spans()),
                   registry, counting.wall, threads);
  workload->AddLayerMetrics(fixed, layers);
  layers["overhead.spans_op_p50_ms"] = {timing.P50Ms() - untraced.P50Ms(),
                                        "ms"};
  layers["overhead.spans_ops_per_s"] = {
      timing.OpsPerSecond() - untraced.OpsPerSecond(), "1/s"};
  layers["overhead.registry_op_p50_ms"] = {
      counting.P50Ms() - untraced.P50Ms(), "ms"};
  layers["overhead.registry_ops_per_s"] = {
      counting.OpsPerSecond() - untraced.OpsPerSecond(), "1/s"};

  for (const auto& [label, phase] :
       {std::pair<const char*, const Phase*>{"untraced", &untraced},
        {"timing pass (spans)", &timing},
        {"counting pass (spans + registry)", &counting}}) {
    std::cout << label << ":\n";
    PrintLatencies(*phase, std::cout);
  }
  std::cout << "digest " << Hex(digest) << " (ops 0.." << fixed - 1 << ")\n";
  std::cout << "spans " << spans.size() << '\n';
  for (const auto& [name, seconds] : timing_totals.self) {
    std::cout << "self_s " << name << ' ' << Num(seconds) << '\n';
  }
  for (const auto& [name, metric] : layers) {
    std::cout << "layer " << name << ' ' << Num(metric.value) << ' '
              << metric.unit << '\n';
  }
  size_t failed = 0;
  for (const Phase* phase : {&untraced, &timing, &counting}) {
    PrintErrors(*phase);
    failed += phase->errors.size();
  }
  PrintJson(failed == 0, 3 * fixed, failed, layers);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace msprint

int main(int argc, char** argv) {
  try {
    return msprint::perfbench::Run(msprint::perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
