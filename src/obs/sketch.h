// DDSketch-style relative-error quantile sketch (Masson et al.,
// "DDSketch: A Fast and Fully-Mergeable Quantile Sketch with
// Relative-Error Guarantees"), the repo's only quantile structure: SLO
// windows, the metrics registry's histograms and span attribution all
// summarize through it.
//
// Values are mapped to logarithmic buckets indexed by
// ceil(log(v) / log(gamma)) with gamma = (1 + a) / (1 - a) for relative
// accuracy a; each bucket keeps an integer count. Because the state is
// integer counts keyed by integer indices plus a min/max envelope, Merge
// is associative, commutative, and bit-exact: merging per-shard sketches
// in any partition and any order yields byte-identical Serialize output
// to the single-stream sketch.
//
// Determinism: index and representative computations use std::log /
// std::pow, which are deterministic for a given libm — the same contract
// the export layer already accepts (DESIGN.md §9). Quantile extraction
// follows the nearest-rank rule QuantileRankTarget.

#ifndef MSPRINT_SRC_OBS_SKETCH_H_
#define MSPRINT_SRC_OBS_SKETCH_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace msprint {
namespace obs {

class Histogram;

// The nearest-rank rule: 1-based rank of the sample a quantile estimator
// returns for fraction `q` (clamped to [0, 1]) over `count` samples.
inline uint64_t QuantileRankTarget(uint64_t count, double q) {
  q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  return std::min<uint64_t>(
      count, 1 + static_cast<uint64_t>(q * static_cast<double>(count - 1)));
}

class QuantileSketch {
 public:
  // Values below this go to the dedicated zero bucket instead of the log
  // mapping (log underflows).
  static constexpr double kMinTracked = 1e-9;

  // relative_accuracy must lie in (0, 1); quantile estimates carry at
  // most this relative error with respect to the true sample quantile.
  explicit QuantileSketch(double relative_accuracy = 0.01);

  // Records a sample. Non-finite or negative values are rejected (the
  // rejected counter increments) and do not perturb quantiles. Returns
  // whether the sample was accepted.
  bool Insert(double value);

  // Bucket index of a value at or above kMinTracked. Public so a store
  // that keeps its own counts (the registry's atomic cells) buckets
  // exactly as Insert does.
  int32_t Index(double value) const;

  // Folds `other` into this sketch. Both must share the same
  // relative_accuracy bit pattern; throws std::invalid_argument
  // otherwise. Integer bucket adds make the result independent of merge
  // order and partition.
  void Merge(const QuantileSketch& other);

  // Nearest-rank quantile over the bucketed distribution, clamped to the
  // exact [min, max] envelope. Empty sketch returns 0.0.
  double Quantile(double q) const;

  // Count-weighted mean of the bucket representatives Quantile returns;
  // order-independent like the buckets themselves. Empty sketch: 0.0.
  double ApproxMean() const;

  uint64_t count() const { return count_; }
  uint64_t rejected() const { return rejected_; }
  double min() const { return has_bounds_ ? min_ : 0.0; }
  double max() const { return has_bounds_ ? max_ : 0.0; }
  double relative_accuracy() const { return relative_accuracy_; }
  double gamma() const { return gamma_; }
  uint64_t zero_count() const { return zero_count_; }
  // Non-empty buckets, index -> count, in index order.
  const std::map<int32_t, uint64_t>& buckets() const { return buckets_; }
  size_t num_buckets() const { return buckets_.size(); }

  // Bit-exact wire form (persist::Writer, self-contained). Deserialize
  // fails closed with persist::PersistError on any malformed input.
  std::string Serialize() const;
  static QuantileSketch Deserialize(std::string_view bytes);

 private:
  // Histogram::Merged folds its sharded atomic cells in directly.
  friend class Histogram;

  // Value of bucket `index` reported for every sample in it: 2 gamma^i /
  // (gamma + 1), within relative accuracy a of both ends of the range
  // (gamma^(i-1), gamma^i], clamped to the observed [min, max].
  double Representative(int32_t index) const;

  double relative_accuracy_;
  double gamma_;
  double inv_log_gamma_;
  // Sorted bucket index -> sample count. std::map keeps Serialize output
  // canonical without a separate sort.
  std::map<int32_t, uint64_t> buckets_;
  uint64_t zero_count_ = 0;  // samples below kMinTracked
  uint64_t count_ = 0;       // accepted samples (includes zero bucket)
  uint64_t rejected_ = 0;
  bool has_bounds_ = false;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace obs
}  // namespace msprint

#endif  // MSPRINT_SRC_OBS_SKETCH_H_
