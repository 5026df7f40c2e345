// Effective sprint rate calibration (Section 2.3, Equation 2).
//
// The effective sprint rate mu_e is the sprint rate that, fed to the
// timeout-aware queue simulator, makes the simulator's response time agree
// with the response time observed on the real system — the smallest
// absolute adjustment to the marginal rate mu_m that achieves tolerable
// error. It amortizes every runtime dynamic the simulator does not model
// (mid-execution sprint starts, toggle latency, queue state) into a single
// rate per (conditions, policy) point.

#ifndef MSPRINT_SRC_CORE_EFFECTIVE_RATE_H_
#define MSPRINT_SRC_CORE_EFFECTIVE_RATE_H_

#include "src/common/thread_pool.h"
#include "src/core/model_input.h"
#include "src/sim/queue_simulator.h"

namespace msprint {

struct CalibrationConfig {
  // Relative response-time tolerance T of Equation 2.
  double tolerance = 0.01;
  // Search bounds on the effective speedup mu_e / mu, relative to the
  // marginal speedup. Equation 2's adjustment x may be negative, so the
  // effective rate can drop below the service rate (a sprint that slows
  // things down at runtime, e.g. via toggling costs on a saturated queue).
  double min_speedup = 0.5;
  double max_speedup_factor = 1.5;  // upper bound: factor * marginal speedup
  size_t bisection_iterations = 24;
  size_t sim_queries = 20000;
  size_t sim_warmup = 2000;
  size_t sim_replications = 2;
  uint64_t seed = 97;
};

// Builds the simulator configuration for (profile, input) at the given
// sprint speedup. `service` must outlive the returned config.
SimConfig BuildSimConfig(const WorkloadProfile& profile,
                         const ModelInput& input,
                         const Distribution& service, double speedup,
                         size_t num_queries, size_t warmup, uint64_t seed);

// Mean simulated response time averaged over a few common-random-number
// replications.
double SimulatedResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input,
                             const Distribution& service, double speedup,
                             const CalibrationConfig& config);

// Equation 2: returns the effective speedup mu_e / mu for one profiled
// observation, by bisection instead of the paper's increment/decrement
// walk. Bisection assumes response time falls monotonically with the
// sprint speedup. Common random numbers remove resampling jitter but do
// not guarantee that: 46 of 144 probed configs were non-monotone, with
// uphill steps of up to 1 %, so bisection can settle on a different
// crossing than the walk would.
double CalibrateEffectiveSpeedup(const WorkloadProfile& profile,
                                 const ProfileRow& row,
                                 const Distribution& service,
                                 const CalibrationConfig& config);

// Runs calibration for every row of `profile` in place, fanning rows out
// across `pool` (nullptr: the shared global pool). Rows are independent,
// so the calibrated profile is identical for any pool size. Returns the
// number of rows calibrated.
size_t CalibrateProfile(WorkloadProfile& profile,
                        const CalibrationConfig& config,
                        ThreadPool* pool = nullptr);

}  // namespace msprint

#endif  // MSPRINT_SRC_CORE_EFFECTIVE_RATE_H_
