// Probability distributions used for arrival processes and service times.
//
// The paper's profiler and simulator support exponential, Pareto and
// deterministic arrival/service processes (Section 2.2); the empirical
// distribution resamples service times recorded during workload profiling.
// All distributions are immutable after construction and sample through an
// externally-owned Rng, so one distribution object can serve many
// replications with independent random streams.

#ifndef MSPRINT_SRC_COMMON_DISTRIBUTION_H_
#define MSPRINT_SRC_COMMON_DISTRIBUTION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace msprint {

enum class DistributionKind {
  kExponential,
  kPareto,
  kDeterministic,
  kUniform,
  kLognormal,
  kWeibull,
  kHyperexponential,
  kEmpirical,
};

inline constexpr DistributionKind kAllDistributionKinds[] = {
    DistributionKind::kExponential, DistributionKind::kPareto,
    DistributionKind::kDeterministic, DistributionKind::kUniform,
    DistributionKind::kLognormal, DistributionKind::kWeibull,
    DistributionKind::kHyperexponential, DistributionKind::kEmpirical};

// Returns a short lowercase name ("exponential", "pareto", ...).
std::string ToString(DistributionKind kind);

// Interface for non-negative continuous distributions.
class Distribution {
 public:
  virtual ~Distribution() = default;

  // Draws one sample. Always >= 0.
  virtual double Sample(Rng& rng) const = 0;

  // Analytic (or empirical) mean of the distribution.
  virtual double Mean() const = 0;

  // Analytic variance; may be +inf for heavy tails (Pareto with alpha<=2).
  virtual double Variance() const = 0;

  virtual DistributionKind kind() const = 0;

  // Human-readable description, e.g. "exponential(rate=0.25)".
  virtual std::string Describe() const = 0;
};

// Exponential with the given rate (events per unit time). Mean = 1/rate.
class ExponentialDistribution final : public Distribution {
 public:
  explicit ExponentialDistribution(double rate);

  double Sample(Rng& rng) const override;
  double Mean() const override;
  double Variance() const override;
  DistributionKind kind() const override {
    return DistributionKind::kExponential;
  }
  std::string Describe() const override;

  double rate() const { return rate_; }

 private:
  double rate_;
};

// Pareto (Lomax-style, shifted so support is [scale, inf)). The paper uses
// alpha = 0.5 for heavy-tailed arrivals; with alpha <= 1 the analytic mean
// diverges, so Mean() returns the mean of the *truncated* distribution used
// for sampling. Samples are capped at `cap` times the scale to keep
// simulations finite, mirroring the finite experiment horizon in the paper.
class ParetoDistribution final : public Distribution {
 public:
  ParetoDistribution(double alpha, double scale, double cap_factor = 1e4);

  double Sample(Rng& rng) const override;
  double Mean() const override;
  double Variance() const override;
  DistributionKind kind() const override { return DistributionKind::kPareto; }
  std::string Describe() const override;

  double alpha() const { return alpha_; }
  double scale() const { return scale_; }

  // Chooses `scale` so the *truncated* mean equals `target_mean`.
  static ParetoDistribution WithMean(double alpha, double target_mean,
                                     double cap_factor = 1e4);

 private:
  double TruncatedMean() const;
  double TruncatedSecondMoment() const;

  double alpha_;
  double scale_;
  double cap_factor_;
};

// Point mass at `value`.
class DeterministicDistribution final : public Distribution {
 public:
  explicit DeterministicDistribution(double value);

  double Sample(Rng& rng) const override;
  double Mean() const override;
  double Variance() const override;
  DistributionKind kind() const override {
    return DistributionKind::kDeterministic;
  }
  std::string Describe() const override;

 private:
  double value_;
};

// Uniform over [lo, hi].
class UniformDistribution final : public Distribution {
 public:
  UniformDistribution(double lo, double hi);

  double Sample(Rng& rng) const override;
  double Mean() const override;
  double Variance() const override;
  DistributionKind kind() const override { return DistributionKind::kUniform; }
  std::string Describe() const override;

 private:
  double lo_;
  double hi_;
};

// Lognormal parameterized by the mean and coefficient of variation of the
// *resulting* distribution (not of the underlying normal), which is the
// natural way to express service-time jitter around a profiled mean.
class LognormalDistribution final : public Distribution {
 public:
  LognormalDistribution(double mean, double cov);

  double Sample(Rng& rng) const override;
  double Mean() const override;
  double Variance() const override;
  DistributionKind kind() const override {
    return DistributionKind::kLognormal;
  }
  std::string Describe() const override;

 private:
  double mean_;
  double cov_;
  double mu_;     // location of underlying normal
  double sigma_;  // scale of underlying normal
};

// Weibull with shape k and scale chosen for a target mean. k < 1 gives a
// heavy(ish) tail, k = 1 reduces to exponential — a standard service-time
// family in queueing studies.
class WeibullDistribution final : public Distribution {
 public:
  WeibullDistribution(double shape, double scale);

  double Sample(Rng& rng) const override;
  double Mean() const override;
  double Variance() const override;
  DistributionKind kind() const override { return DistributionKind::kWeibull; }
  std::string Describe() const override;

  // Chooses the scale so the mean equals `target_mean`.
  static WeibullDistribution WithMean(double shape, double target_mean);

 private:
  double shape_;
  double scale_;
};

// Two-branch hyperexponential H2: with probability p the rate is rate1,
// otherwise rate2. CoV > 1; models bimodal service populations (fast
// cached hits vs slow misses).
class HyperexponentialDistribution final : public Distribution {
 public:
  HyperexponentialDistribution(double p, double rate1, double rate2);

  double Sample(Rng& rng) const override;
  double Mean() const override;
  double Variance() const override;
  DistributionKind kind() const override {
    return DistributionKind::kHyperexponential;
  }
  std::string Describe() const override;

 private:
  double p_;
  double rate1_;
  double rate2_;
};

// Resamples uniformly from a recorded set of observations — how the
// simulator replays service times captured by the workload profiler
// (Section 2.2: "We randomly sample service time data collected during
// profiling").
class EmpiricalDistribution final : public Distribution {
 public:
  explicit EmpiricalDistribution(std::vector<double> samples);

  double Sample(Rng& rng) const override;
  double Mean() const override;
  double Variance() const override;
  DistributionKind kind() const override {
    return DistributionKind::kEmpirical;
  }
  std::string Describe() const override;

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  double mean_;
  double variance_;
};

// Factory: builds an arrival/service distribution of `kind` with the given
// mean. Pareto uses alpha = 0.5 (the paper's heavy-tail setting); uniform
// spans [0.5*mean, 1.5*mean]; lognormal uses cov = 0.5.
std::unique_ptr<Distribution> MakeDistribution(DistributionKind kind,
                                               double mean);

}  // namespace msprint

#endif  // MSPRINT_SRC_COMMON_DISTRIBUTION_H_
