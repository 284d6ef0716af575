#include "oracle/pade.hpp"

#include <cmath>

#include "linalg/blas3.hpp"
#include "linalg/lu.hpp"
#include "support/require.hpp"

namespace slim::oracle {

using linalg::Flavor;
using linalg::Matrix;

Matrix expmPade(const Matrix& a) {
  SLIM_REQUIRE(a.square(), "expmPade: matrix must be square");
  const std::size_t n = a.rows();

  // Infinity norm -> scaling exponent s with ||A / 2^s|| <= 0.5.
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double rowSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) rowSum += std::fabs(a(i, j));
    norm = std::max(norm, rowSum);
  }
  int s = 0;
  if (norm > 0.5) s = static_cast<int>(std::ceil(std::log2(norm))) + 1;
  const double scale = std::ldexp(1.0, -s);  // 2^{-s}

  Matrix b(n, n);
  for (std::size_t k = 0; k < a.size(); ++k) b.data()[k] = a.data()[k] * scale;

  // Order-6 diagonal Pade: N = sum c_k B^k, D = sum c_k (-B)^k, X = D^{-1} N.
  constexpr int q = 6;
  double c = 1.0;
  Matrix num = Matrix::identity(n);
  Matrix den = Matrix::identity(n);
  Matrix power = Matrix::identity(n);
  Matrix tmp(n, n);
  double sign = 1.0;
  for (int k = 1; k <= q; ++k) {
    c *= static_cast<double>(q - k + 1) / (k * (2 * q - k + 1));
    linalg::gemm(Flavor::Opt, power, b, tmp);
    power = tmp;
    sign = -sign;
    for (std::size_t idx = 0; idx < power.size(); ++idx) {
      num.data()[idx] += c * power.data()[idx];
      den.data()[idx] += c * sign * power.data()[idx];
    }
  }

  Matrix x = linalg::LuFactorization(den).solve(num);

  // Undo the scaling by repeated squaring.
  for (int k = 0; k < s; ++k) {
    linalg::gemm(Flavor::Opt, x, x, tmp);
    x = tmp;
  }
  return x;
}

}  // namespace slim::oracle
