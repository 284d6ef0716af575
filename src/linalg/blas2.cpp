#include "linalg/blas2.hpp"

#include "support/require.hpp"

namespace slim::linalg {

namespace {

// CodeML-style gemv: one dot product per output element, no restrict, no
// effort to help the vectorizer (transcribed from PAML's matby with m = 1).
void gemvNaive(const Matrix& a, const double* x, double* y, double alpha,
               double beta) {
  const std::size_t m = a.rows(), n = a.cols();
  for (std::size_t i = 0; i < m; ++i) {
    double t = 0.0;
    for (std::size_t k = 0; k < n; ++k) t += a(i, k) * x[k];
    y[i] = alpha * t + beta * y[i];
  }
}

// Optimized gemv: restrict-qualified pointers over contiguous rows; the dot
// product over a unit-stride row vectorizes cleanly.
void gemvOpt(const Matrix& a, const double* SLIM_RESTRICT x,
             double* SLIM_RESTRICT y, double alpha, double beta) {
  const std::size_t m = a.rows(), n = a.cols();
  for (std::size_t i = 0; i < m; ++i) {
    const double* SLIM_RESTRICT row = a.row(i);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      s0 += row[k] * x[k];
      s1 += row[k + 1] * x[k + 1];
      s2 += row[k + 2] * x[k + 2];
      s3 += row[k + 3] * x[k + 3];
    }
    double t = (s0 + s1) + (s2 + s3);
    for (; k < n; ++k) t += row[k] * x[k];
    y[i] = alpha * t + beta * y[i];
  }
}

}  // namespace

void gemv(Flavor flavor, const Matrix& a, std::span<const double> x,
          std::span<double> y, double alpha, double beta) {
  SLIM_REQUIRE(x.size() == a.cols() && y.size() == a.rows(),
               "gemv: dimension mismatch");
  if (flavor == Flavor::Naive)
    gemvNaive(a, x.data(), y.data(), alpha, beta);
  else
    gemvOpt(a, x.data(), y.data(), alpha, beta);
}

void gemvT(Flavor flavor, const Matrix& a, std::span<const double> x,
           std::span<double> y, double alpha, double beta) {
  SLIM_REQUIRE(x.size() == a.rows() && y.size() == a.cols(),
               "gemvT: dimension mismatch");
  const std::size_t m = a.rows(), n = a.cols();
  if (flavor == Flavor::Naive) {
    // Column dot products: strided reads down each column.
    for (std::size_t j = 0; j < n; ++j) {
      double t = 0.0;
      for (std::size_t i = 0; i < m; ++i) t += a(i, j) * x[i];
      y[j] = alpha * t + beta * y[j];
    }
    return;
  }
  // Opt: accumulate row-by-row (saxpy form) so every inner pass streams a
  // contiguous row of A.
  double* SLIM_RESTRICT yp = y.data();
  if (beta == 0.0)
    for (std::size_t j = 0; j < n; ++j) yp[j] = 0.0;
  else
    for (std::size_t j = 0; j < n; ++j) yp[j] *= beta;
  for (std::size_t i = 0; i < m; ++i) {
    const double* SLIM_RESTRICT row = a.row(i);
    const double xi = alpha * x[i];
    for (std::size_t j = 0; j < n; ++j) yp[j] += xi * row[j];
  }
}

}  // namespace slim::linalg
