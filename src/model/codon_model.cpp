#include "model/codon_model.hpp"

#include <cmath>

#include "support/require.hpp"

namespace slim::model {

using bio::GeneticCode;
using linalg::Matrix;

void buildExchangeability(const GeneticCode& gc, double kappa, double omega,
                          Matrix& s, Matrix* dKappa, Matrix* dOmega) {
  SLIM_REQUIRE(kappa > 0, "kappa must be positive");
  SLIM_REQUIRE(omega >= 0, "omega must be non-negative");
  const auto n = static_cast<std::size_t>(gc.numSense());
  const auto shaped = [n](const Matrix* m) {
    return m == nullptr || (m->rows() == n && m->square());
  };
  SLIM_REQUIRE(shaped(&s) && shaped(dKappa) && shaped(dOmega),
               "exchangeability matrix has wrong shape");
  s.fill(0.0);
  if (dKappa) dKappa->fill(0.0);
  if (dOmega) dOmega->fill(0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const int ci = gc.codonOfSense(static_cast<int>(i));
    for (std::size_t j = i + 1; j < n; ++j) {
      const int cj = gc.codonOfSense(static_cast<int>(j));
      const auto cls = bio::classifyCodonPair(gc, ci, cj);
      if (cls.ndiff != 1) continue;
      const double k = cls.transition ? kappa : 1.0;
      const double w = cls.synonymous ? 1.0 : omega;
      s(i, j) = s(j, i) = k * w;
      if (dKappa && cls.transition) (*dKappa)(i, j) = (*dKappa)(j, i) = w;
      if (dOmega && !cls.synonymous) (*dOmega)(i, j) = (*dOmega)(j, i) = k;
    }
  }
}

double buildRateMatrix(const Matrix& s, std::span<const double> pi, Matrix& q) {
  const std::size_t n = s.rows();
  SLIM_REQUIRE(s.square() && pi.size() == n, "rate matrix: size mismatch");
  SLIM_REQUIRE(q.rows() == n && q.square(), "rate matrix: output shape");
  double mu = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double rowSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double v = s(i, j) * pi[j];
      q(i, j) = v;
      rowSum += v;
    }
    q(i, i) = -rowSum;
    mu += pi[i] * rowSum;
  }
  return mu;
}

double expectedRate(const Matrix& q, std::span<const double> pi) {
  SLIM_REQUIRE(q.square() && pi.size() == q.rows(), "expectedRate: shape");
  double mu = 0.0;
  for (std::size_t i = 0; i < q.rows(); ++i) mu -= pi[i] * q(i, i);
  return mu;
}

void scaleRateMatrix(Matrix& q, double factor) {
  SLIM_REQUIRE(factor > 0, "scale factor must be positive");
  for (std::size_t k = 0; k < q.size(); ++k) q.data()[k] /= factor;
}

void validateGenerator(const Matrix& q, std::span<const double> pi,
                       double tol) {
  const std::size_t n = q.rows();
  SLIM_REQUIRE(q.square() && pi.size() == n, "validateGenerator: shape");
  for (std::size_t i = 0; i < n; ++i) {
    double rowSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j)
        SLIM_REQUIRE(q(i, j) >= 0.0, "negative off-diagonal rate");
      rowSum += q(i, j);
    }
    SLIM_REQUIRE(std::fabs(rowSum) < tol, "generator row does not sum to 0");
    for (std::size_t j = i + 1; j < n; ++j)
      SLIM_REQUIRE(std::fabs(pi[i] * q(i, j) - pi[j] * q(j, i)) < tol,
                   "detailed balance violated");
  }
}

}  // namespace slim::model
