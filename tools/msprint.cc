// msprint command-line tool: drive the pipeline without writing C++.
//
// Every verb — its operands, flags, one-line summary and handler — is
// declared once in the verb table at the bottom of this file. `msprint
// help` prints that table; a flag the chosen verb does not declare is a
// usage error. Exit codes live in src/common/exit_codes.h.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/exit_codes.h"
#include "src/common/fileio.h"
#include "src/core/analytic_model.h"
#include "src/core/effective_rate.h"
#include "src/explore/explorer.h"
#include "src/mc/mc.h"
#include "src/obs/attrib.h"
#include "src/obs/diff.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/obs/slo.h"
#include "src/obs/whatif/whatif.h"
#include "src/online/advisor.h"
#include "src/persist/checkpoint.h"
#include "src/profiler/profile_io.h"
#include "src/robust/storm.h"
#include "src/testbed/testbed.h"

namespace msprint {
namespace {

// A bad invocation: unknown flag, malformed value, missing operand. Exits
// 2 (usage error), distinct from runtime failures (exit 1).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A bad flag, printed as `flag <name>: <reason>`.
class FlagError : public UsageError {
 public:
  FlagError(const std::string& name, const std::string& reason)
      : UsageError("flag " + name + ": " + reason) {}
};

// Strict numeric parsing: the whole value must be one finite number.
// std::stod alone accepts "0.75abc" and stoul silently wraps "-3" to a
// huge size_t — both have bitten real invocations.
double ParseDoubleFlag(const std::string& name, const std::string& text) {
  size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    throw FlagError(name, "expected a number, got '" + text + "'");
  }
  if (consumed != text.size()) {
    throw FlagError(name, "trailing garbage in '" + text + "'");
  }
  if (!std::isfinite(value)) {
    throw FlagError(name, "must be finite, got '" + text + "'");
  }
  return value;
}

size_t ParseSizeFlag(const std::string& name, const std::string& text) {
  if (text.empty()) {
    throw FlagError(name, "empty value");
  }
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw FlagError(name,
                      "expected a non-negative integer, got '" + text + "'");
    }
  }
  try {
    size_t consumed = 0;
    const unsigned long long value = std::stoull(text, &consumed);
    return static_cast<size_t>(value);
  } catch (const std::exception&) {
    throw FlagError(name, "out of range: '" + text + "'");
  }
}

// One declared flag of a verb.
struct FlagSpec {
  std::string name;
  std::string value;                 // help placeholder, e.g. "N" or "F"
  std::vector<std::string> choices = {};  // a choice flag's values
  bool required = false;  // shown outside the brackets in help
  bool boolean = false;   // bare, or followed by 0 or 1
};

FlagSpec Opt(const std::string& name, const std::string& value) {
  return {name, value};
}

FlagSpec Req(FlagSpec spec) {
  spec.required = true;
  return spec;
}

FlagSpec Req(const std::string& name, const std::string& value) {
  return Req(Opt(name, value));
}

FlagSpec OneOf(const std::string& name, std::vector<std::string> choices) {
  std::string value;
  for (const std::string& choice : choices) {
    value += (value.empty() ? "" : "|") + choice;
  }
  return {name, value, std::move(choices)};
}

// The ToString names of `values`, in order: a choice flag's choices.
template <typename Range>
std::vector<std::string> Names(const Range& values) {
  std::vector<std::string> names;
  for (const auto value : values) {
    names.push_back(ToString(value));
  }
  return names;
}

constexpr obs::Severity kSeverities[] = {
    obs::Severity::kDebug, obs::Severity::kInfo, obs::Severity::kWarn,
    obs::Severity::kError};

// Flags shared by several verbs, declared once and listed once in help.
struct FlagGroup {
  std::string name;
  std::string summary;
  std::vector<FlagSpec> flags;
};

// Accepted by every verb: sizes the shared pool every parallel stage draws
// from.
const FlagSpec kThreadsFlag = Opt("threads", "N");

class Flags;

struct Verb {
  std::string name;
  std::string summary;
  int (*run)(const Flags&);
  std::vector<FlagSpec> flags;                // the verb's own flags
  std::vector<const FlagGroup*> groups = {};  // shared groups it accepts
  std::vector<std::string> operands = {};

  const FlagSpec* Find(const std::string& flag) const {
    for (const FlagSpec& spec : flags) {
      if (spec.name == flag) {
        return &spec;
      }
    }
    for (const FlagGroup* group : groups) {
      for (const FlagSpec& spec : group->flags) {
        if (spec.name == flag) {
          return &spec;
        }
      }
    }
    return flag == kThreadsFlag.name ? &kThreadsFlag : nullptr;
  }
};

// The parsed command line of one verb: its operands, then `--name value`
// pairs for flags the verb declares. Reading a flag the verb does not
// declare is a programming error (std::logic_error), so the handlers and
// the verb table cannot drift apart.
class Flags {
 public:
  Flags(const Verb& verb, int argc, char** argv) : verb_(verb) {
    int i = 2;
    for (; i < argc && operands_.size() < verb.operands.size(); ++i) {
      if (std::string(argv[i]).rfind("--", 0) == 0) {
        break;
      }
      operands_.push_back(argv[i]);
    }
    if (operands_.size() < verb.operands.size()) {
      throw UsageError("msprint " + verb.name + ": missing operand <" +
                       verb.operands[operands_.size()] + ">");
    }
    for (; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        // A stray positional is a bad invocation (exit 2), not a runtime
        // failure — same contract as every other malformed flag.
        throw FlagError(arg, "expected a --flag argument");
      }
      arg = arg.substr(2);
      const FlagSpec* spec = verb.Find(arg);
      if (spec == nullptr) {
        throw FlagError(arg, "not a flag of msprint " + verb.name);
      }
      std::string value = "1";
      if (spec->boolean) {
        if (i + 1 < argc && (std::string(argv[i + 1]) == "0" ||
                             std::string(argv[i + 1]) == "1")) {
          value = argv[++i];
        }
      } else if (i + 1 >= argc) {
        throw FlagError(arg, "missing value");
      } else {
        value = argv[++i];
      }
      if (!spec->choices.empty() &&
          std::find(spec->choices.begin(), spec->choices.end(), value) ==
              spec->choices.end()) {
        throw FlagError(arg,
                        "expected " + spec->value + ", got '" + value + "'");
      }
      values_[arg] = value;
    }
  }

  const std::vector<std::string>& operands() const { return operands_; }

  bool Has(const std::string& name) const {
    if (verb_.Find(name) == nullptr) {
      throw std::logic_error("msprint " + verb_.name +
                             " reads undeclared flag --" + name);
    }
    return values_.count(name) > 0;
  }

  std::string GetString(const std::string& name) const {
    if (!Has(name)) {
      throw FlagError(name, "required flag is missing");
    }
    return values_.at(name);
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    return Has(name) ? values_.at(name) : fallback;
  }

  double GetDouble(const std::string& name) const {
    return ParseDoubleFlag(name, GetString(name));
  }

  double GetDouble(const std::string& name, double fallback) const {
    return Has(name) ? GetDouble(name) : fallback;
  }

  size_t GetSize(const std::string& name, size_t fallback) const {
    return Has(name) ? ParseSizeFlag(name, values_.at(name)) : fallback;
  }

 private:
  const Verb& verb_;
  std::vector<std::string> operands_;
  std::map<std::string, std::string> values_;
};

// Converts a value parser's failure into a FlagError so a bad flag VALUE
// (malformed .storm/.slo/.trace file contents, an inapplicable knob) exits
// 2 like every other usage error, instead of drifting to exit 1. A
// missing/unreadable FILE stays a runtime failure — wrap only the parse,
// not the read.
template <typename Fn>
auto ParseFlagValue(const std::string& name, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::exception& error) {
    throw FlagError(name, error.what());
  }
}

// Reads the file named by flag `name` and parses its contents.
template <typename Parse>
auto ParseFileFlag(const Flags& flags, const std::string& name, Parse parse) {
  const std::string text = ReadFileBytes(flags.GetString(name));
  return ParseFlagValue(name, [&] { return parse(text); });
}

DistributionKind ArrivalKindFlag(const Flags& flags) {
  return ParseDistributionKind(flags.GetString("arrival", "exponential"));
}

int CmdCatalog(const Flags&) {
  std::cout << "Workloads (Table 1C):\n";
  for (WorkloadId id : AllWorkloads()) {
    const auto& spec = WorkloadCatalog::Get().spec(id);
    std::cout << "  " << spec.name << " — " << spec.description << " ("
              << spec.sustained_qph_dvfs << " / " << spec.burst_qph_dvfs
              << " qph on DVFS)\n";
  }
  std::cout << "\nMechanisms (Table 1B):\n";
  for (MechanismId id : kAllMechanisms) {
    std::cout << "  " << MakeMechanism(id)->Describe() << "\n";
  }
  return 0;
}

int CmdProfile(const Flags& flags) {
  SprintPolicy platform;
  platform.mechanism = ParseMechanismId(flags.GetString("mechanism", "DVFS"));
  platform.throttle_fraction = flags.GetDouble("throttle", 0.2);
  platform.sprint_cpu_fraction = flags.GetDouble("sprint-cpu", 1.0);

  const WorkloadId workload = ParseWorkloadId(flags.GetString("workload"));
  QueryMix mix = QueryMix::Single(workload);
  if (flags.Has("mix-with")) {
    // Two-workload mix with a default interference factor.
    mix = QueryMix::Uniform(
        {workload, ParseWorkloadId(flags.GetString("mix-with"))},
        flags.GetDouble("interference", 0.8));
  }

  ProfilerConfig config;
  config.sample_grid_points = flags.GetSize("grid", 280);
  config.queries_per_run = flags.GetSize("queries", 8000);
  config.warmup_queries = config.queries_per_run / 10;
  config.seed = flags.GetSize("seed", 42);
  config.pool_size = flags.GetSize("threads", 0);  // 0: shared pool

  std::cout << "profiling " << mix.Describe() << " on "
            << ToString(platform.mechanism) << "...\n";
  const WorkloadProfile profile = ProfileWorkload(mix, platform, config);
  std::cout << "  mu = "
            << profile.service_rate_per_second * kSecondsPerHour
            << " qph, mu_m = "
            << profile.marginal_rate_per_second * kSecondsPerHour
            << " qph, rows = " << profile.rows.size()
            << ", virtual profiling hours = "
            << profile.total_profiling_hours << "\n";
  SaveProfileToFile(profile, flags.GetString("out"));
  std::cout << "saved to " << flags.GetString("out") << "\n";
  return 0;
}

int CmdCalibrate(const Flags& flags) {
  WorkloadProfile profile =
      LoadProfileFromFile(flags.GetString("profile"));
  CalibrationConfig config;
  std::cout << "calibrating " << profile.rows.size() << " rows...\n";
  CalibrateProfile(profile, config);
  SaveProfileToFile(profile, flags.GetString("out"));
  std::cout << "saved to " << flags.GetString("out") << "\n";
  return 0;
}

ModelInput InputFromFlags(const Flags& flags) {
  ModelInput input;
  input.utilization = flags.GetDouble("utilization");
  input.timeout_seconds = flags.GetDouble("timeout", 60.0);
  input.budget_fraction = flags.GetDouble("budget");
  input.refill_seconds = flags.GetDouble("refill", 200.0);
  input.arrival_kind = ArrivalKindFlag(flags);
  return input;
}

int CmdPredict(const Flags& flags) {
  const WorkloadProfile profile =
      LoadProfileFromFile(flags.GetString("profile"));
  const ModelInput input = InputFromFlags(flags);
  const std::string which = flags.GetString("model", "hybrid");
  std::optional<HybridModel> hybrid;  // hybrid and noml predict percentiles
  if (which == "hybrid") {
    hybrid.emplace(HybridModel::Train({&profile}));
  }
  if (flags.Has("percentile")) {
    const double q = flags.GetDouble("percentile");
    if (which == "analytic") {
      throw FlagError("percentile", "supported with --model hybrid|noml only");
    }
    const double value =
        hybrid ? hybrid->PredictResponseTimePercentile(profile, input, q)
               : NoMlModel().PredictResponseTimePercentile(profile, input, q);
    std::cout << "p" << q * 100 << " response time: " << value << " s\n";
    return 0;
  }
  const double rt =
      hybrid ? hybrid->PredictResponseTime(profile, input)
      : which == "noml"
          ? NoMlModel().PredictResponseTime(profile, input)
          : AnalyticModel().PredictResponseTime(profile, input);
  std::cout << "expected mean response time (" << which << "): " << rt
            << " s\n";
  return 0;
}

// Replays a recorded arrival trace through the timeout-aware simulator at
// the hybrid model's effective sprint rate — "what would response time
// have been" for a past workload under a hypothetical policy.
int CmdReplay(const Flags& flags) {
  const WorkloadProfile profile =
      LoadProfileFromFile(flags.GetString("profile"));
  const std::vector<double> trace =
      LoadArrivalTraceFromFile(flags.GetString("trace"));

  // Estimate the trace's utilization for the model input.
  const double span = trace.back() - trace.front();
  const double arrival_rate =
      span > 0.0 ? static_cast<double>(trace.size() - 1) / span : 0.0;
  ModelInput input;
  input.utilization = std::clamp(
      arrival_rate / profile.service_rate_per_second, 0.05, 0.98);
  input.timeout_seconds = flags.GetDouble("timeout", 60.0);
  input.budget_fraction = flags.GetDouble("budget");
  input.refill_seconds = flags.GetDouble("refill", 200.0);

  const HybridModel model = HybridModel::Train({&profile});
  const double mu_e_qph = model.PredictEffectiveRateQph(profile, input);
  const double speedup = std::max(
      1.0, mu_e_qph / (profile.service_rate_per_second * kSecondsPerHour));

  const EmpiricalDistribution service(profile.service_time_samples);
  SimConfig sim = BuildSimConfig(profile, input, service, speedup,
                                 trace.size(), 0, 97);
  sim.arrival_trace = &trace;
  const SimResult result = SimulateQueue(sim);
  std::cout << "replayed " << trace.size() << " recorded arrivals ("
            << arrival_rate * kSecondsPerHour << " qph, estimated "
            << input.utilization * 100 << "% utilization)\n"
            << "  effective sprint rate: " << mu_e_qph << " qph (speedup "
            << speedup << "X)\n"
            << "  mean response time:   " << result.mean_response_time
            << " s\n"
            << "  p99 response time:    "
            << result.PercentileResponseTime(0.99) << " s\n"
            << "  sprinted fraction:    "
            << result.fraction_sprinted * 100 << "%\n";
  return 0;
}

int CmdExplore(const Flags& flags) {
  const WorkloadProfile profile =
      LoadProfileFromFile(flags.GetString("profile"));
  ModelInput base;
  base.utilization = flags.GetDouble("utilization");
  base.budget_fraction = flags.GetDouble("budget");
  base.refill_seconds = flags.GetDouble("refill", 200.0);
  base.arrival_kind = ArrivalKindFlag(flags);

  const HybridModel model = HybridModel::Train({&profile});
  ExploreConfig config;
  config.max_iterations = flags.GetSize("iterations", 200);
  const ExploreResult result = ExploreTimeout(model, profile, base, config);
  std::cout << "best timeout: " << result.best_timeout_seconds
            << " s (expected mean response time "
            << result.best_response_time << " s; explored "
            << result.trajectory.size() << " policies)\n";
  return 0;
}

// The seeded, fault-capable testbed run the testbed flag group describes.
// Two invocations with identical flags run identical storms.
TestbedConfig TestbedConfigFromFlags(const Flags& flags) {
  TestbedConfig config;
  config.mix =
      QueryMix::Single(ParseWorkloadId(flags.GetString("workload", "Jacobi")));
  config.policy.mechanism =
      ParseMechanismId(flags.GetString("mechanism", "DVFS"));
  config.policy.timeout_seconds = flags.GetDouble("timeout", 60.0);
  config.policy.budget_fraction = flags.GetDouble("budget", 0.2);
  config.policy.refill_seconds = flags.GetDouble("refill", 200.0);
  config.utilization = flags.GetDouble("utilization", 0.6);
  config.num_queries = flags.GetSize("queries", 2000);
  config.warmup_queries = config.num_queries / 10;
  config.seed = flags.GetSize("seed", 1);

  config.faults.seed = flags.GetSize("fault-seed", 0);  // 0: from --seed
  config.faults.toggle_failure_probability =
      flags.GetDouble("toggle-fail", 0.0);
  config.faults.breaker_trips_per_hour =
      flags.GetDouble("breaker-trips", 0.0);
  config.faults.breaker_cooldown_seconds =
      flags.GetDouble("breaker-cooldown", 120.0);
  config.faults.outlier_probability = flags.GetDouble("outliers", 0.0);
  config.faults.outlier_multiplier =
      flags.GetDouble("outlier-multiplier", 8.0);
  config.faults.flash_crowds_per_hour =
      flags.GetDouble("flash-crowds", 0.0);
  config.faults.flash_crowd_duration_seconds =
      flags.GetDouble("crowd-duration", 60.0);
  config.faults.flash_crowd_intensity =
      flags.GetDouble("crowd-intensity", 3.0);
  return config;
}

// The storm scenario in the .storm file named by flag `name` (built-in
// defaults when absent), with the --seed/--queries quick overrides;
// committed .storm files stay the source of truth for the CI replays.
robust::StormConfig StormConfigFromFlags(const Flags& flags,
                                         const std::string& name) {
  robust::StormConfig config;
  if (flags.Has(name)) {
    config = ParseFileFlag(flags, name, robust::ParseStormConfig);
  }
  config.seed = flags.GetSize("seed", config.seed);
  config.queries = flags.GetSize("queries", config.queries);
  return config;
}

// The testbed run of slo, watch and whatif: one side of a storm scenario
// (--storm, --side) or the testbed flags.
TestbedConfig ScenarioFromFlags(const Flags& flags) {
  if (!flags.Has("storm")) {
    return TestbedConfigFromFlags(flags);
  }
  return robust::MakeStormTestbedConfig(
      StormConfigFromFlags(flags, "storm"),
      flags.GetString("side", "hardened") == "hardened");
}

// Replays a model-checker trace (tests/golden/mc_traces/*.trace) through
// the ladder harness and prints the breaker faults it fired plus the
// invariant verdict — the `msprint faults` side of the counterexample
// pipeline. Exit 4 when the recorded invariant violation reproduces.
int ReplayMcTraceAsFaults(const Flags& flags) {
  const mc::TraceFile trace =
      ParseFileFlag(flags, "mc-trace", mc::ParseTraceFile);
  mc::McConfig config;
  config.bug = trace.bug;
  config.overload_alphabet = trace.overload;
  mc::LadderHarness harness(config);
  std::optional<mc::Violation> violation;
  size_t applied = 0;
  for (const mc::Action& action : trace.actions) {
    violation = harness.Apply(action);
    ++applied;
    if (violation.has_value()) {
      break;
    }
  }
  std::cout << FormatFaultTrace(harness.fault_trace());
  std::cout << "# mc-trace " << flags.GetString("mc-trace") << "\n"
            << "# injected-bug " << mc::ToString(trace.bug) << "\n"
            << "# actions " << applied << "/" << trace.actions.size()
            << ", rung " << ToString(harness.advisor().rung())
            << ", budget " << obs::StableDouble(harness.budget().Available(
                                  harness.clock_seconds()))
            << "\n";
  if (violation.has_value()) {
    std::cout << "# violation " << violation->invariant << ": "
              << violation->detail << "\n";
    return kExitMcViolation;
  }
  std::cout << "# violation none\n";
  return kExitOk;
}

int CmdFaults(const Flags& flags) {
  if (flags.Has("mc-trace")) {
    return ReplayMcTraceAsFaults(flags);
  }
  const TestbedConfig config = TestbedConfigFromFlags(flags);

  // Observe the storm run too: the metrics snapshot and warn-level event
  // tail below are byte-stable, so the CI replay diff that guards the
  // fault trace also guards the observability exports.
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder;
  recorder.SetMinSeverityAll(obs::Severity::kWarn);
  RunTrace trace;
  {
    obs::ObsSession session(&metrics, &recorder);
    trace = Testbed::Run(config);
  }
  std::cout << FormatFaultTrace(trace.fault_trace);

  size_t per_kind[8] = {};
  for (const FaultEvent& event : trace.fault_trace) {
    ++per_kind[static_cast<size_t>(event.kind)];
  }
  std::cout << "# faults: " << trace.fault_trace.size();
  for (size_t k = 0; k < 8; ++k) {
    if (per_kind[k] > 0) {
      std::cout << " " << ToString(static_cast<FaultKind>(k)) << "="
                << per_kind[k];
    }
  }
  std::cout << "\n# mean response time: " << trace.mean_response_time
            << " s, sprinted " << trace.fraction_sprinted * 100
            << "%, sprint-seconds " << trace.total_sprint_seconds
            << ", makespan " << trace.makespan << " s\n";
  std::cout << "# obs-metrics\n" << metrics.Snapshot().ToText();
  std::cout << "# obs-events\n" << recorder.FormatTail();
  return 0;
}

// ------------------------------------------------- checkpoint / restore

// Drives `steps` steps of the deterministic advisor drive. Every random
// draw comes from Rng(DeriveSeed(state.seed, state.step)) — a pure
// function of the drive cursor — so a run that was checkpointed and
// restored replays the exact event sequence an uninterrupted run would
// have seen. Step lines go to `out` at full precision (setprecision 17) so
// resumed output can be byte-diffed against the tail of an uninterrupted
// run; nullptr runs silently. All narration goes to stderr.
persist::DriveState DriveSteps(OnlineAdvisor& advisor, SprintBudget& budget,
                               persist::DriveState state, size_t steps,
                               std::ostream* out) {
  if (out != nullptr) {
    *out << std::setprecision(17);
  }
  for (size_t i = 0; i < steps; ++i, ++state.step) {
    Rng rng(DeriveSeed(state.seed, state.step));
    const double dt = 2.0 + 8.0 * rng.NextDouble();
    state.clock_seconds += dt;
    advisor.OnArrival(state.clock_seconds);
    const double service_seconds = 30.0 + 20.0 * rng.NextDouble();
    advisor.OnCompletion(state.clock_seconds, service_seconds);

    const auto rec = advisor.Recommend(state.clock_seconds);
    if (rec.has_value()) {
      // Feed the watchdog a noisy observation around the prediction and
      // debit the sprint budget, so both subsystems carry live state into
      // the checkpoint.
      advisor.OnObservedResponseTime(
          state.clock_seconds,
          rec->predicted_response_time * (0.8 + 0.4 * rng.NextDouble()));
      budget.ConsumeUpTo(state.clock_seconds, 0.1 * service_seconds);
    }

    if (out != nullptr) {
      *out << "step " << state.step << " t=" << state.clock_seconds
           << " rate=" << advisor.EstimatedArrivalRate(state.clock_seconds)
           << " budget=" << budget.Available(state.clock_seconds);
      if (rec.has_value()) {
        *out << " rung=" << ToString(rec->rung) << " rev=" << rec->revision
             << " timeout=" << rec->timeout_seconds
             << " predicted=" << rec->predicted_response_time;
      } else {
        *out << " rung=- rev=- timeout=- predicted=-";
      }
      *out << "\n";
    }
  }
  return state;
}

AdvisorConfig AdvisorConfigFromFlags(const Flags& flags) {
  AdvisorConfig config;
  config.base.budget_fraction = flags.GetDouble("budget", 0.2);
  config.base.refill_seconds = flags.GetDouble("refill", 200.0);
  config.base.arrival_kind = ArrivalKindFlag(flags);
  config.explore.max_iterations = flags.GetSize("iterations", 80);
  config.explore.num_chains = flags.GetSize("chains", 1);
  config.rate_window_seconds = flags.GetDouble("rate-window", 600.0);
  // Re-plans happen on the live path of the drive; keep them cheap.
  const size_t sim_queries = flags.GetSize("sim-queries", 2000);
  config.fallback_sim =
      PredictionSimConfig{sim_queries, sim_queries / 10, 1, 97};
  return config;
}

// The advisor flag group's run: loads --profile, trains the hybrid model
// and drives the online advisor --steps deterministic steps from --seed.
// Step lines go to `out`; nullptr runs silently (stats, trace and explain
// keep stdout for their own export).
struct AdvisorDrive {
  AdvisorDrive(const Flags& flags, std::ostream* out)
      : profile(LoadProfileFromFile(flags.GetString("profile"))),
        config(AdvisorConfigFromFlags(flags)),
        model([&] {
          std::cerr << "training hybrid model on " << profile.rows.size()
                    << " rows...\n";
          return HybridModel::Train({&profile}, {}, config.fallback_sim);
        }()),
        advisor(model, profile, config),
        budget(SprintBudget::FromFraction(config.base.budget_fraction,
                                          config.base.refill_seconds)) {
    state.seed = flags.GetSize("seed", 1);
    state = DriveSteps(advisor, budget, state, flags.GetSize("steps", 40),
                       out);
  }
  // `advisor` refers to `model` and `profile`: a copy would dangle.
  AdvisorDrive(const AdvisorDrive&) = delete;
  AdvisorDrive& operator=(const AdvisorDrive&) = delete;

  const WorkloadProfile profile;
  const AdvisorConfig config;
  const HybridModel model;
  OnlineAdvisor advisor;
  SprintBudget budget;
  persist::DriveState state;
};

int CmdCheckpoint(const Flags& flags) {
  const std::string out = flags.GetString("out");
  const AdvisorDrive drive(flags, &std::cout);
  persist::SaveCheckpointToFile(out, drive.profile, drive.model, drive.config,
                                drive.advisor, drive.budget, drive.state);
  std::cerr << "checkpoint saved to " << out << " at step "
            << drive.state.step << " (rung " << ToString(drive.advisor.rung())
            << ")\n";
  return 0;
}

int CmdRestore(const Flags& flags) {
  persist::LoadedCheckpoint checkpoint =
      persist::LoadCheckpointFromFile(flags.GetString("checkpoint"));
  OnlineAdvisor advisor(checkpoint.model, checkpoint.profile,
                        checkpoint.config);
  persist::RestoreAdvisorState(advisor, checkpoint.advisor_state);
  std::cerr << "restored checkpoint at step " << checkpoint.drive.step
            << " (rung " << ToString(advisor.rung()) << ")\n";

  const persist::DriveState state =
      DriveSteps(advisor, checkpoint.budget, checkpoint.drive,
                 flags.GetSize("steps", 40), &std::cout);
  if (flags.Has("out")) {
    persist::SaveCheckpointToFile(flags.GetString("out"), checkpoint.profile,
                                  checkpoint.model, checkpoint.config,
                                  advisor, checkpoint.budget, state);
    std::cerr << "checkpoint saved to " << flags.GetString("out")
              << " at step " << state.step << "\n";
  }
  return 0;
}

// Runs a seeded workload with an ObsSession attached so the stats/trace
// verbs have telemetry to export: the advisor drive with --profile,
// otherwise the fault-capable testbed.
void RunObserved(const Flags& flags, obs::MetricsRegistry& metrics,
                 obs::FlightRecorder& recorder) {
  obs::ObsSession session(&metrics, &recorder);
  if (flags.Has("profile")) {
    const AdvisorDrive drive(flags, /*out=*/nullptr);
  } else {
    (void)Testbed::Run(TestbedConfigFromFlags(flags));
  }
}

int CmdStats(const Flags& flags) {
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(
      flags.GetSize("capacity", obs::FlightRecorder::kDefaultCapacity));
  RunObserved(flags, metrics, recorder);
  // Timing metrics (wall-clock) are opt-in: the default export is the
  // deterministic one that CI byte-diffs across pool sizes.
  const obs::MetricsSnapshot snapshot =
      metrics.Snapshot(flags.GetSize("include-timing", 0) != 0);
  if (flags.GetString("format", "text") == "json") {
    std::cout << snapshot.ToJson() << "\n";
  } else {
    std::cout << snapshot.ToText();
  }
  return 0;
}

int CmdTrace(const Flags& flags) {
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(
      flags.GetSize("capacity", obs::FlightRecorder::kDefaultCapacity));
  const std::string min_severity = flags.GetString("min-severity", "");
  for (const obs::Severity severity : kSeverities) {
    if (ToString(severity) == min_severity) {
      recorder.SetMinSeverityAll(severity);
    }
  }
  RunObserved(flags, metrics, recorder);
  const std::string format = flags.GetString("format", "text");
  if (format == "jsonl") {
    std::cout << obs::EventsToJsonl(recorder.Events());
  } else if (format == "chrome") {
    std::cout << obs::EventsToChromeTrace(recorder.Events());
  } else {
    std::cout << recorder.FormatTail();
  }
  return 0;
}

// Attribution for a seeded run: collect spans from the serial testbed (or
// the serial simulator under the advisor's recommended policy) and print
// the byte-stable attribution report or a Chrome trace of nested spans.
int CmdExplain(const Flags& flags) {
  obs::AttributionOptions options;
  options.top_k = flags.GetSize("top", 5);
  const std::string format = flags.GetString("format", "text");

  obs::SpanCollector collector;
  std::string policy_comment;
  if (flags.Has("profile")) {
    // Train, drive the advisor to a standing recommendation, then replay
    // the recommended policy through the timeout-aware simulator —
    // serially, so span recording keeps the determinism contract.
    AdvisorDrive drive(flags, /*out=*/nullptr);
    const auto rec = drive.advisor.Recommend(drive.state.clock_seconds);

    ModelInput input = drive.config.base;
    input.utilization = flags.GetDouble("utilization", 0.6);
    input.timeout_seconds = rec.has_value()
                                ? rec->timeout_seconds
                                : flags.GetDouble("timeout", 60.0);
    const WorkloadProfile& profile = drive.profile;
    const double mu_e_qph =
        drive.model.PredictEffectiveRateQph(profile, input);
    const double speedup = std::max(
        1.0, mu_e_qph / (profile.service_rate_per_second * kSecondsPerHour));
    const EmpiricalDistribution service(profile.service_time_samples);
    const size_t sim_queries = flags.GetSize("queries", 2000);
    SimConfig sim =
        BuildSimConfig(profile, input, service, speedup, sim_queries,
                       sim_queries / 10, flags.GetSize("seed", 1));
    sim.record_spans = true;
    obs::ObsSession session(nullptr, nullptr, &collector);
    (void)SimulateQueue(sim);
    policy_comment =
        "# policy rung=" +
        (rec.has_value() ? std::string(ToString(rec->rung)) : "-") +
        " timeout=" + obs::StableDouble(input.timeout_seconds) +
        " speedup=" + obs::StableDouble(speedup) + "\n";
  } else {
    const TestbedConfig config = TestbedConfigFromFlags(flags);
    obs::ObsSession session(nullptr, nullptr, &collector);
    (void)Testbed::Run(config);
  }

  const std::vector<obs::QuerySpan> spans = collector.TakeSpans();
  if (format == "chrome") {
    std::cout << obs::SpansToChromeTrace(spans);
    return 0;
  }
  const obs::AttributionReport report = obs::Attribute(spans, options);
  if (format == "json") {
    // One byte-stable JSON object; the `#` policy comment line has no
    // place inside JSON, so the json rendering carries the report alone.
    std::cout << obs::FormatAttributionJson(report) << "\n";
    return kExitOk;
  }
  std::cout << policy_comment << obs::FormatAttribution(report);
  return kExitOk;
}

int CmdObsDiff(const Flags& flags) {
  obs::DiffOptions options;
  options.max_rel = flags.GetDouble("max-rel", options.max_rel);
  options.approx_rel = flags.GetDouble("approx-rel", options.approx_rel);
  options.abs_eps = flags.GetDouble("abs-eps", options.abs_eps);
  const obs::DiffResult result =
      obs::DiffExports(ReadFileBytes(flags.operands()[0]),
                       ReadFileBytes(flags.operands()[1]), options);
  std::cout << result.report;
  return result.breached() ? kExitObsDiffBreach : kExitOk;
}

// ------------------------------------------------ bounded model checking

int CmdMc(const Flags& flags) {
  // Replay mode reproduces a recorded trace and re-asserts the invariants.
  // The trace's own header decides the harness defect and the alphabet
  // (and thus whether the harness runs with the shed rung); --inject-bug
  // and --alphabet override them (e.g. `--inject-bug none` to prove the
  // fixed system replays the same actions cleanly).
  mc::TraceFile trace;
  if (flags.Has("replay")) {
    trace = ParseFileFlag(flags, "replay", mc::ParseTraceFile);
  }
  mc::McConfig config;
  config.seed = flags.GetSize("seed", config.seed);
  config.bug = *mc::InjectedBugFromName(
      flags.GetString("inject-bug", mc::ToString(trace.bug)));
  config.overload_alphabet =
      flags.GetString("alphabet", trace.overload ? "overload" : "default") ==
      "overload";
  if (flags.Has("replay")) {
    const auto violation = mc::ReplayTrace(config, trace.actions);
    std::cout << "# msprint mc replay v1\n"
              << "trace " << flags.GetString("replay") << "\n"
              << "actions " << trace.actions.size() << "\n"
              << "injected-bug " << mc::ToString(config.bug) << "\n"
              << "expected-invariant " << trace.invariant << "\n";
    if (violation.has_value()) {
      std::cout << "violation " << violation->invariant << "\n"
                << "violation-detail " << violation->detail << "\n";
      return kExitMcViolation;
    }
    std::cout << "violation none\n";
    return kExitOk;
  }

  config.horizon = flags.GetSize("horizon", config.horizon);
  config.max_transitions =
      flags.GetSize("max-transitions", config.max_transitions);

  const mc::McReport report = mc::RunBoundedCheck(config);
  std::cout << mc::FormatReport(report);

  if (flags.Has("export")) {
    const std::string dir = flags.GetString("export");
    std::filesystem::create_directories(dir);
    if (report.violation.has_value()) {
      mc::TraceFile trace{report.counterexample, config.bug,
                          report.violation->invariant,
                          config.overload_alphabet};
      const std::string path =
          dir + "/counterexample_" + report.violation->invariant + ".trace";
      AtomicWriteFile(path, mc::FormatTraceFile(trace));
      std::cerr << "exported " << path << "\n";
    }
    for (const auto& [name, actions] : report.frontier) {
      mc::TraceFile trace{actions, config.bug, "none",
                          config.overload_alphabet};
      const std::string path = dir + "/frontier_" + name + ".trace";
      AtomicWriteFile(path, mc::FormatTraceFile(trace));
      std::cerr << "exported " << path << "\n";
    }
  }
  return report.violation.has_value() ? kExitMcViolation : kExitOk;
}

// ------------------------------------------------------ overload storms

// Replays one metastable-failure storm A/B (DESIGN.md §14): the same
// deterministic storm against the unprotected baseline and the hardened
// (admission control + retry budgets) server. --require-ratio gates the
// hardened/baseline goodput ratio — the CI overload-stress job replays
// committed .storm configs through it.
int CmdStorm(const Flags& flags) {
  const robust::StormReport report =
      robust::RunStormAB(StormConfigFromFlags(flags, "config"));
  const std::string text = robust::FormatStormReport(report);
  std::cout << text;
  if (flags.Has("out")) {
    AtomicWriteFile(flags.GetString("out"), text);
  }
  if (flags.Has("require-ratio")) {
    const double required = flags.GetDouble("require-ratio");
    if (!(report.goodput_ratio >= required)) {
      std::cerr << "storm: goodput ratio "
                << obs::StableDouble(report.goodput_ratio)
                << " below required " << obs::StableDouble(required) << "\n";
      return kExitStormGate;
    }
  }
  return kExitOk;
}

// --------------------------------------------- streaming SLO telemetry

// Shared driver of the `slo` and `watch` verbs (DESIGN.md §15): runs the
// testbed scenario with an SloPipeline attached, then prints the
// byte-stable window timeline (or the watch rendering) followed by the
// summary. Exits 6 when any objective burned through its lifetime error
// budget.
int RunSloCommand(const Flags& flags, bool watch) {
  obs::SloConfig slo_config;
  if (flags.Has("objectives")) {
    slo_config = ParseFileFlag(flags, "objectives", obs::ParseSloObjectives);
  }
  // Quick overrides; committed objectives files stay the source of truth.
  if (flags.Has("window")) {
    slo_config.window_seconds = flags.GetDouble("window");
  }
  slo_config.timeline_capacity =
      flags.GetSize("capacity", slo_config.timeline_capacity);
  const TestbedConfig config = ScenarioFromFlags(flags);

  obs::SloPipeline pipeline(slo_config);
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder;
  {
    obs::ObsSession session(&metrics, &recorder, nullptr, &pipeline);
    (void)Testbed::Run(config);  // Run() finishes the attached pipeline.
  }

  std::string timeline;
  if (watch) {
    timeline = pipeline.FormatWatch();
  } else if (flags.GetString("format", "text") == "jsonl") {
    timeline = pipeline.FormatTimelineJsonl();
  } else {
    timeline = pipeline.FormatTimeline();
  }
  std::cout << timeline << pipeline.FormatSummary();
  if (flags.Has("out")) {
    AtomicWriteFile(flags.GetString("out"),
                    timeline + pipeline.FormatSummary());
  }
  if (pipeline.BurnedThrough()) {
    std::cerr << "slo: error budget burned through\n";
    return kExitSloBurnThrough;
  }
  return kExitOk;
}

// ------------------------------------------------ causal what-if profiler

std::vector<std::string> SplitList(const std::string& text, char separator) {
  std::vector<std::string> items;
  size_t begin = 0;
  while (begin <= text.size()) {
    const size_t end = std::min(text.find(separator, begin), text.size());
    if (end > begin) {
      items.push_back(text.substr(begin, end - begin));
    }
    begin = end + 1;
  }
  return items;
}

// Shared report print + --save/--out/--require-gain tail of the whatif
// verb (used both for fresh runs and for --load of a persisted report).
int EmitWhatifReport(const whatif::Report& report, const Flags& flags) {
  const std::string text = flags.GetString("format", "text") == "jsonl"
                               ? whatif::FormatReportJsonl(report)
                               : whatif::FormatReport(report);
  std::cout << text;
  if (flags.Has("out")) {
    AtomicWriteFile(flags.GetString("out"), text);
  }
  if (flags.Has("save")) {
    whatif::SaveReportToFile(flags.GetString("save"), report);
  }
  if (flags.Has("require-gain")) {
    const double required = flags.GetDouble("require-gain");
    const double best = report.BestRelativeGain();
    if (!(best >= required)) {
      std::cerr << "whatif: best relative gain " << obs::StableDouble(best)
                << " below required " << obs::StableDouble(required) << "\n";
      return kExitWhatifNoGain;
    }
  }
  return kExitOk;
}

int CmdWhatif(const Flags& flags) {
  if (flags.Has("load")) {
    // Re-render (and optionally re-gate) a persisted report; derived
    // columns are recomputed from the stored measurements, so the output
    // is byte-identical to the run that saved it.
    return EmitWhatifReport(
        whatif::LoadReportFromFile(flags.GetString("load")), flags);
  }

  whatif::Scenario scenario;
  scenario.testbed = ScenarioFromFlags(flags);
  if (flags.Has("objectives")) {
    scenario.slo =
        ParseFileFlag(flags, "objectives", obs::ParseSloObjectives);
    scenario.evaluate_slo = true;
  }

  std::vector<whatif::Knob> knobs;
  if (flags.Has("knobs")) {
    for (const std::string& name :
         SplitList(flags.GetString("knobs"), ',')) {
      whatif::Knob knob;
      if (!whatif::ParseKnob(name, &knob)) {
        throw FlagError("knobs", "unknown knob '" + name + "'");
      }
      knobs.push_back(knob);
    }
    if (knobs.empty()) {
      throw FlagError("knobs", "empty knob list");
    }
  } else {
    knobs = whatif::AllKnobs();
  }
  std::vector<double> deltas;
  for (const std::string& item :
       SplitList(flags.GetString("deltas", "-0.5,0.25,1"), ',')) {
    deltas.push_back(ParseDoubleFlag("deltas", item));
  }

  const whatif::Plan plan = ParseFlagValue(
      "deltas",
      [&] { return whatif::PlanExperiments(scenario, knobs, deltas); });
  for (const whatif::Knob knob : plan.skipped) {
    std::cerr << "whatif: knob " << whatif::ToString(knob)
              << " not applicable to this scenario, skipped\n";
  }
  if (plan.experiments.empty()) {
    throw FlagError("knobs", "no requested knob applies to this scenario");
  }
  return EmitWhatifReport(whatif::RunWhatif(scenario, plan), flags);
}

// ------------------------------------------------------------ verb table

const FlagSpec kArrivalFlag = OneOf("arrival", Names(kAllDistributionKinds));
const FlagSpec kWorkloadFlag = OneOf("workload", Names(AllWorkloads()));
const FlagSpec kMechanismFlag = OneOf("mechanism", Names(kAllMechanisms));

const FlagGroup kTestbedFlags{
    "testbed flags",
    "a seeded testbed run under a deterministic fault storm",
    {kWorkloadFlag, kMechanismFlag, Opt("utilization", "U"),
     Opt("timeout", "S"), Opt("budget", "B"), Opt("refill", "S"),
     Opt("queries", "N"), Opt("seed", "N"), Opt("fault-seed", "N"),
     Opt("toggle-fail", "P"), Opt("breaker-trips", "R"),
     Opt("breaker-cooldown", "S"), Opt("outliers", "P"),
     Opt("outlier-multiplier", "X"), Opt("flash-crowds", "R"),
     Opt("crowd-duration", "S"), Opt("crowd-intensity", "X")}};

const FlagGroup kAdvisorFlags{
    "advisor flags",
    "with --profile: train the hybrid model, drive the online advisor",
    {Opt("profile", "F"), Opt("steps", "N"), Opt("seed", "N"),
     Opt("budget", "B"), Opt("refill", "S"), kArrivalFlag,
     Opt("iterations", "N"), Opt("chains", "N"), Opt("rate-window", "S"),
     Opt("sim-queries", "N")}};

const FlagGroup kStormFlags{
    "storm flags",
    "one side of a storm scenario instead of the testbed flags",
    {Opt("storm", "F"), OneOf("side", {"hardened", "baseline"})}};

const std::vector<FlagSpec> kSloFlags = {
    Opt("objectives", "F"), Opt("window", "S"), Opt("capacity", "N"),
    OneOf("format", {"text", "jsonl"}), Opt("out", "F")};

const std::vector<const FlagGroup*> kGroups = {&kTestbedFlags, &kAdvisorFlags,
                                               &kStormFlags};

const std::vector<Verb> kVerbs = {
    {"catalog", "list workloads (Table 1C) and mechanisms (Table 1B)",
     CmdCatalog, {}},
    {"profile", "profile a workload on the testbed and save the profile",
     CmdProfile,
     {Req(kWorkloadFlag), Req("out", "F"), kMechanismFlag,
      OneOf("mix-with", Names(AllWorkloads())), Opt("interference", "X"),
      Opt("grid", "N"), Opt("queries", "N"), Opt("seed", "N"),
      Opt("throttle", "X"), Opt("sprint-cpu", "X")}},
    {"calibrate", "fill in every row's effective sprint rate (Eq. 2)",
     CmdCalibrate, {Req("profile", "F"), Req("out", "F")}},
    {"predict", "predict mean (or percentile) response time of a policy",
     CmdPredict,
     {Req("profile", "F"), Req("utilization", "U"), Req("budget", "B"),
      Opt("timeout", "S"), Opt("refill", "S"),
      OneOf("model", {"hybrid", "noml", "analytic"}), Opt("percentile", "Q"),
      kArrivalFlag}},
    {"explore", "simulated-annealing search for the best timeout",
     CmdExplore,
     {Req("profile", "F"), Req("utilization", "U"), Req("budget", "B"),
      Opt("refill", "S"), Opt("iterations", "N"), kArrivalFlag}},
    {"replay", "what-if on a recorded arrival trace (one time per line)",
     CmdReplay,
     {Req("profile", "F"), Req("trace", "F"), Req("budget", "B"),
      Opt("timeout", "S"), Opt("refill", "S")}},
    {"faults",
     "byte-stable fault trace of a testbed run; --mc-trace replays a "
     "model-checker trace (exit 4 on a violation)",
     CmdFaults, {Opt("mc-trace", "F")}, {&kTestbedFlags}},
    {"checkpoint", "drive the advisor and save a crash-safe checkpoint",
     CmdCheckpoint, {Req("profile", "F"), Req("out", "F")}, {&kAdvisorFlags}},
    {"restore", "warm-restart the advisor from a checkpoint, continue",
     CmdRestore, {Req("checkpoint", "F"), Opt("steps", "N"), Opt("out", "F")}},
    {"stats",
     "deterministic metrics snapshot of a seeded run; --include-timing "
     "adds wall-clock metrics, which are not byte-stable",
     CmdStats,
     {OneOf("format", {"text", "json"}),
      {"include-timing", "", {}, false, /*boolean=*/true},
      Opt("capacity", "N")},
     {&kAdvisorFlags, &kTestbedFlags}},
    {"trace", "sim-time flight-recorder event stream of the same run",
     CmdTrace,
     {OneOf("format", {"text", "jsonl", "chrome"}),
      OneOf("min-severity", Names(kSeverities)), Opt("capacity", "N")},
     {&kAdvisorFlags, &kTestbedFlags}},
    {"explain",
     "exact per-query latency attribution of a seeded run, top-K slowest "
     "span trees",
     CmdExplain, {OneOf("format", {"text", "chrome", "json"}), Opt("top", "K")},
     {&kAdvisorFlags, &kTestbedFlags}},
    {"obs-diff",
     "compare two exports field by field; exit 3 on a threshold breach",
     CmdObsDiff,
     {Opt("max-rel", "X"), Opt("approx-rel", "X"), Opt("abs-eps", "X")}, {},
     {"a", "b"}},
    {"mc",
     "bounded model checking of the advisor ladder; exit 4 on an invariant "
     "violation",
     CmdMc,
     {Opt("horizon", "N"), Opt("seed", "N"), Opt("max-transitions", "N"),
      OneOf("alphabet", {"default", "overload"}),
      OneOf("inject-bug", Names(mc::kAllInjectedBugs)), Opt("export", "DIR"),
      Opt("replay", "F")}},
    {"storm",
     "metastable-storm A/B of the baseline and hardened server; exit 5 "
     "when the goodput ratio is below --require-ratio",
     CmdStorm,
     {Opt("config", "F"), Opt("seed", "N"), Opt("queries", "N"),
      Opt("out", "F"), Opt("require-ratio", "X")}},
    {"slo",
     "streaming SLO timeline and burn-rate summary of a seeded run; exit 6 "
     "on error-budget burn-through",
     [](const Flags& flags) { return RunSloCommand(flags, /*watch=*/false); },
     kSloFlags, {&kStormFlags, &kTestbedFlags}},
    {"watch", "the slo run as a per-window p99 bar chart; exit 6 likewise",
     [](const Flags& flags) { return RunSloCommand(flags, /*watch=*/true); },
     kSloFlags, {&kStormFlags, &kTestbedFlags}},
    {"whatif",
     "causal what-if profiler: counterfactual reruns over a knob x delta "
     "grid; exit 7 when --require-gain is unmet",
     CmdWhatif,
     {Opt("knobs", "K1,K2"), Opt("deltas", "D1,D2"), Opt("objectives", "F"),
      Opt("save", "F"), Opt("load", "F"), OneOf("format", {"text", "jsonl"}),
      Opt("out", "F"), Opt("require-gain", "X")},
     {&kStormFlags, &kTestbedFlags}},
};

// Prints `words` wrapped at 78 columns, each line indented by `indent`.
void PrintWrapped(std::ostream& out, const std::vector<std::string>& words,
                  size_t indent) {
  size_t column = 0;
  for (const std::string& word : words) {
    if (column > 0 && column + 1 + word.size() > 78) {
      out << "\n";
      column = 0;
    }
    const std::string gap = column == 0 ? std::string(indent, ' ') : " ";
    out << gap << word;
    column += gap.size() + word.size();
  }
  out << "\n";
}

std::string FlagWord(const FlagSpec& spec) {
  return "--" + spec.name + (spec.boolean ? "" : " " + spec.value);
}

// A verb's help entry: `lead`, the verb with its operands and required
// flags, then its summary and, in brackets, its optional flags and groups.
void PrintVerb(std::ostream& out, const Verb& verb, const std::string& lead) {
  std::vector<std::string> head = {lead + verb.name};
  std::vector<std::string> rest;
  for (const std::string& operand : verb.operands) {
    head.push_back("<" + operand + ">");
  }
  for (const FlagSpec& spec : verb.flags) {
    (spec.required ? head : rest).push_back(FlagWord(spec));
  }
  for (const FlagGroup* group : verb.groups) {
    rest.push_back("<" + group->name + ">");
  }
  PrintWrapped(out, head, 0);
  PrintWrapped(out, SplitList(verb.summary, ' '), 6);
  if (!rest.empty()) {
    rest.front() = "[" + rest.front();
    rest.back() += "]";
    PrintWrapped(out, rest, 6);
  }
}

void PrintUsage(std::ostream& out) {
  out << "usage: msprint <command> [<operands>] [--flag value ...]\n"
         "commands:\n";
  for (const Verb& verb : kVerbs) {
    PrintVerb(out, verb, "  ");
  }
  out << "  help\n      print this message\nflag groups:\n";
  for (const FlagGroup* group : kGroups) {
    out << "  <" << group->name << ">\n      " << group->summary << "\n";
    std::vector<std::string> words;
    for (const FlagSpec& spec : group->flags) {
      words.push_back(FlagWord(spec));
    }
    PrintWrapped(out, words, 6);
  }
  out << "every command also accepts " << FlagWord(kThreadsFlag)
      << " (worker pool size; default MSPRINT_THREADS)\n"
         "exit codes: 0 success, 1 runtime failure, 2 usage error (unknown\n"
         "command or flag, bad value); verb-specific codes are listed above\n";
}

}  // namespace
}  // namespace msprint

int main(int argc, char** argv) {
  using namespace msprint;
  const std::string command = argc < 2 ? "" : argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    PrintUsage(std::cout);
    return kExitOk;
  }
  const auto verb =
      std::find_if(kVerbs.begin(), kVerbs.end(),
                   [&](const Verb& entry) { return entry.name == command; });
  if (verb == kVerbs.end()) {
    if (argc >= 2) {
      std::cerr << "unknown command: " << command << "\n";
    }
    PrintUsage(std::cerr);
    return kExitUsage;
  }
  try {
    const Flags flags(*verb, argc, argv);
    // --threads sizes the shared pool every parallel stage draws from;
    // it must be set before any stage touches ThreadPool::Global().
    if (flags.Has("threads")) {
      ThreadPool::SetGlobalSize(flags.GetSize("threads", 0));
    }
    return verb->run(flags);
  } catch (const UsageError& error) {
    // Bad invocation, not a runtime failure: usage exit code.
    std::cerr << error.what() << "\n";
    PrintVerb(std::cerr, *verb, "usage: msprint ");
    return kExitUsage;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return kExitRuntime;
  }
}
