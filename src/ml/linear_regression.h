// Single-variable least squares, y ~ a*x + b: the leaf model of the
// regression trees (Section 2.4: "when all feature settings are exhausted,
// we create a leaf node by using linear regression on the remaining
// samples").

#ifndef MSPRINT_SRC_ML_LINEAR_REGRESSION_H_
#define MSPRINT_SRC_ML_LINEAR_REGRESSION_H_

#include <utility>
#include <vector>

namespace msprint {

class LinearRegression {
 public:
  // Fits a single-variable model y ~ a*x + b from parallel vectors.
  static LinearRegression FitSimple(const std::vector<double>& x,
                                    const std::vector<double>& y);

  const std::vector<double>& coefficients() const { return coefficients_; }
  double intercept() const { return intercept_; }

 private:
  LinearRegression(std::vector<double> coefficients, double intercept)
      : coefficients_(std::move(coefficients)), intercept_(intercept) {}

  std::vector<double> coefficients_;
  double intercept_;
};

}  // namespace msprint

#endif  // MSPRINT_SRC_ML_LINEAR_REGRESSION_H_
