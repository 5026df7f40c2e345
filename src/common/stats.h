// Streaming and batch statistics used throughout profiling, modeling and
// the experiment harnesses: Welford mean/variance, quantiles, empirical
// CDFs, and the error metrics the paper reports (absolute relative error,
// coefficient of variation).

#ifndef MSPRINT_SRC_COMMON_STATS_H_
#define MSPRINT_SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace msprint {

// Single-pass mean/variance accumulator (Welford's algorithm).
class StreamingStats {
 public:
  void Add(double x);
  void Merge(const StreamingStats& other);

  size_t count() const { return count_; }
  double mean() const;
  // Population variance (divides by n).
  double variance() const;
  double stddev() const;
  // Coefficient of variation: stddev / mean (0 when mean is 0).
  double cov() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Quantile of a sample using linear interpolation between order statistics
// (type-7, the numpy/R default). q is clamped to [0, 1]; an empty sample or
// a NaN q throws std::invalid_argument. Copies and sorts internally.
double Quantile(std::vector<double> values, double q);

// Median shorthand.
double Median(std::vector<double> values);

// Quantile that reports 0.0 for an empty sample instead of throwing; a NaN
// q still throws. The engines' response-time percentiles use it.
double QuantileOrZero(std::vector<double> values, double q);

// Absolute relative error |predicted - observed| / observed.
// Returns |predicted| when observed == 0.
double AbsoluteRelativeError(double predicted, double observed);

// An empirical CDF: sorted support points with cumulative probabilities.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> values);

  // P(X <= x).
  double Probability(double x) const;

  // Inverse CDF (quantile) for q in [0,1].
  double Value(double q) const;

  size_t size() const { return sorted_.size(); }
  const std::vector<double>& sorted_values() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

// Fraction of `values` strictly greater than `threshold` — used for tail
// latency accounting (e.g. the paper's ">335 seconds" 99th percentile cut).
double TailFraction(const std::vector<double>& values, double threshold);

}  // namespace msprint

#endif  // MSPRINT_SRC_COMMON_STATS_H_
