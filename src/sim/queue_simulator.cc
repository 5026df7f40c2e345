#include "src/sim/queue_simulator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/thread_pool.h"
#include "src/core/serve_loop.h"

namespace msprint {

double SimResult::MedianResponseTime() const { return Median(response_times); }

double SimResult::PercentileResponseTime(double q) const {
  return QuantileOrZero(response_times, q);
}

namespace {

// Equation 1's service model: a sprint finishes the remaining work
// `speedup` times faster, with no phases, toggle cost or interference.
class SimServer : public ServeLoop<SimServer> {
 public:
  SimServer(const SimConfig& config, size_t n)
      : ServeLoop(Params(config, n)),
        speedup_(config.sprint_speedup),
        service_(arena_.AllocateUninit<double>(n)) {
    // Pre-generate arrivals and service times, as Algorithm 1 does ("these
    // properties are set before simulation begins"). Batched refills
    // amortize the generator state updates without changing a single draw.
    Rng rng(config.seed);
    rng.EnableBatchedDraws();
    const std::vector<double>* trace = config.arrival_trace;
    const auto interarrival =
        trace != nullptr
            ? nullptr
            : MakeDistribution(config.arrival_kind,
                               1.0 / config.arrival_rate_per_second);
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (trace == nullptr) {
        t += interarrival->Sample(rng);
      } else if (i > 0 && (*trace)[i] < (*trace)[i - 1]) {
        throw std::invalid_argument("arrival trace must be ascending");
      } else {
        t = (*trace)[i];
      }
      arrival_[i] = t;
      service_[i] = std::max(1e-9, config.service->Sample(rng)) *
                    config.service_time_scale;
    }
  }

  double BeginService(size_t q, double, size_t) const { return service_[q]; }

  double EngageSprint(size_t q, double now, SprintStart from) const {
    // A sprint at dispatch covers the whole execution (the marginal-rate
    // case of Section 2); at the interrupt, only the remaining work.
    return (from == SprintStart::kTimeout ? depart_[q] - now : service_[q]) /
           speedup_;
  }

  SimResult Finish(const SimConfig& config,
                   std::vector<SimQuery>* trace_out) const {
    const size_t n = count();
    const size_t first = std::min(config.warmup_queries, n);
    SimResult result;
    result.response_times.reserve(n - first);
    const ServeCounts counts = Summarize(first, result, [&](size_t q) {
      result.response_times.push_back(depart_[q] - arrival_[q]);
    });

    // Counters only: simulations run on pool workers, and the flight
    // recorder is reserved for serial paths. Sharded counter sums are
    // order-independent, so this stays deterministic.
    obs::Count("sim/runs");
    obs::Count("sim/queries", n - first);
    obs::Count("sim/sprinted", counts.sprinted);
    obs::Count("sim/timed_out", counts.timed_out);
    if (config.admission.Enabled()) {
      obs::Count("sim/shed", result.shed_count);
    }

    // Spans come only from serial call sites, so the global collector
    // needs the record_spans opt-in; an explicit span_sink (whatif reruns
    // on workers) bypasses the session. With no phases, interference or
    // faults, a span is queue wait + service + sprint delta.
    RecordSpans(config.span_sink != nullptr
                    ? config.span_sink
                    : (config.record_spans ? obs::ActiveSpans() : nullptr),
                first, [&](size_t q, obs::SpanInputs& in) {
                  in.service_time = service_[q];
                });

    if (trace_out != nullptr) {
      trace_out->resize(n);
      for (size_t i = 0; i < n; ++i) {
        SimQuery& out = (*trace_out)[i];
        out.arrival = arrival_[i];
        out.service_time = service_[i];
        out.start = start_[i];
        out.depart = depart_[i];
        out.timed_out = timed_out_[i] != 0;
        out.sprinted = sprinted_[i] != 0;
        out.shed = shed_[i] != 0;
        out.sprint_seconds = sprint_seconds_[i];
      }
    }
    return result;
  }

 private:
  static ServeParams Params(const SimConfig& config, size_t n) {
    ServeParams params;
    params.queries = n;
    params.capacity = n;
    params.slots = config.slots;
    params.arrival_rate_per_second = config.arrival_rate_per_second;
    params.service_time_scale = config.service_time_scale;
    params.timeout_seconds = config.timeout_seconds;
    params.budget_capacity_seconds = config.budget_capacity_seconds;
    params.budget_refill_seconds = config.budget_refill_seconds;
    params.admission = config.admission;
    // The SLO pipeline is opt-in (record_timeline) because simulations
    // also run on pool workers while a pipeline is attached, and the
    // pipeline, like the flight recorder, is serial-only.
    params.slo = config.record_timeline ? obs::ActiveSlo() : nullptr;
    params.model_bytes = RunArena::BytesFor<double>(n);
    return params;
  }

  const double speedup_;
  double* const service_;
};

}  // namespace

SimResult SimulateQueue(const SimConfig& config,
                        std::vector<SimQuery>* trace_out) {
  if (config.service == nullptr) {
    throw std::invalid_argument("SimConfig.service must be set");
  }
  if (!std::isfinite(config.sprint_speedup) || config.sprint_speedup <= 0.0) {
    throw std::invalid_argument(
        "SimConfig.sprint_speedup must be finite and positive");
  }
  size_t n = config.num_queries;
  if (config.arrival_trace != nullptr) {
    if (config.arrival_trace->empty()) {
      throw std::invalid_argument("arrival trace is empty");
    }
    n = std::min(n, config.arrival_trace->size());
  }
  SimServer server(config, n);
  server.Run();
  return server.Finish(config, trace_out);
}

ReplicatedResult SimulateReplicated(const SimConfig& config,
                                    size_t replications, ThreadPool* pool) {
  if (replications == 0) {
    throw std::invalid_argument("need at least one replication");
  }
  std::vector<double> means(replications, 0.0);
  ResolvePool(pool).ParallelFor(replications, [&](size_t r) {
    SimConfig rep = config;
    rep.seed = DeriveSeed(config.seed, r);
    means[r] = SimulateQueue(rep).mean_response_time;
  });
  StreamingStats stats;
  for (double m : means) {
    stats.Add(m);
  }
  ReplicatedResult out;
  out.mean_response_time = stats.mean();
  out.coefficient_of_variation = stats.cov();
  out.replication_means = std::move(means);
  return out;
}

}  // namespace msprint
