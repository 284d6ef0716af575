#pragma once
// BLAS level-2 style kernels (matrix-vector).
//
// gemv is the per-site conditional-probability-vector propagation kernel of
// CodeML (Sec. III-B of the paper).

#include <span>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace slim::linalg {

/// y := alpha * A * x + beta * y, with A a dense rows x cols matrix.
/// x must have size cols, y size rows.
void gemv(Flavor flavor, const Matrix& a, std::span<const double> x,
          std::span<double> y, double alpha = 1.0, double beta = 0.0);

/// y := alpha * A^T * x + beta * y.  x must have size rows, y size cols.
void gemvT(Flavor flavor, const Matrix& a, std::span<const double> x,
           std::span<double> y, double alpha = 1.0, double beta = 0.0);

}  // namespace slim::linalg
