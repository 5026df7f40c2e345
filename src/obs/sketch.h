// DDSketch-style relative-error quantile sketch (Masson et al.,
// "DDSketch: A Fast and Fully-Mergeable Quantile Sketch with
// Relative-Error Guarantees").
//
// Values are mapped to logarithmic buckets indexed by
// ceil(log(v) / log(gamma)) with gamma = (1 + a) / (1 - a) for relative
// accuracy a; each bucket keeps an integer count. Because the state is
// integer counts keyed by integer indices plus a min/max envelope, Merge
// is associative, commutative, and bit-exact: merging per-shard sketches
// in any partition and any order yields byte-identical Serialize output
// to the single-stream sketch. That is the primitive fleet shards will
// merge at epoch barriers (ROADMAP item 1).
//
// Determinism: index and representative computations use std::log /
// std::pow, which are deterministic for a given libm — the same contract
// the export layer already accepts (DESIGN.md §9). Quantile extraction
// follows the repo-wide nearest-rank rule shared with
// HistogramSnapshot::Quantile and LogHistogram::ApproxQuantile.

#ifndef MSPRINT_SRC_OBS_SKETCH_H_
#define MSPRINT_SRC_OBS_SKETCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace msprint {
namespace obs {

class QuantileSketch {
 public:
  // Values below this go to the dedicated zero bucket instead of the log
  // mapping (log underflows); matches LogHistogram::kMinTracked.
  static constexpr double kMinTracked = 1e-9;

  // relative_accuracy must lie in (0, 1); quantile estimates carry at
  // most this relative error with respect to the true sample quantile.
  explicit QuantileSketch(double relative_accuracy = 0.01);

  // Records a sample. Non-finite or negative values are rejected (the
  // rejected counter increments) and do not perturb quantiles. Returns
  // whether the sample was accepted.
  bool Insert(double value);

  // Folds `other` into this sketch. Both must share the same
  // relative_accuracy bit pattern; throws std::invalid_argument
  // otherwise. Integer bucket adds make the result independent of merge
  // order and partition.
  void Merge(const QuantileSketch& other);

  // Nearest-rank quantile over the bucketed distribution, clamped to the
  // exact [min, max] envelope. Empty sketch returns 0.0.
  double Quantile(double q) const;

  uint64_t count() const { return count_; }
  uint64_t rejected() const { return rejected_; }
  double min() const { return has_bounds_ ? min_ : 0.0; }
  double max() const { return has_bounds_ ? max_ : 0.0; }
  double relative_accuracy() const { return relative_accuracy_; }
  double gamma() const { return gamma_; }
  size_t num_buckets() const { return buckets_.size(); }

  // Bit-exact wire form (persist::Writer, self-contained). Deserialize
  // fails closed with persist::PersistError on any malformed input.
  std::string Serialize() const;
  static QuantileSketch Deserialize(std::string_view bytes);

 private:
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
