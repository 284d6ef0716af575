#pragma once
// Pade scaling-and-squaring matrix exponential: a test oracle.
//
// An eigendecomposition-free reference: the decompositional pipeline of
// CodonEigenSystem and the production adaptive expm are validated against
// this in tests ("Nineteen dubious ways...", Moler & Van Loan — Pade +
// scaling/squaring is method #3 and the workhorse of expm() in
// MATLAB/SciPy).  Not part of the library: it builds into the slim_oracle
// target, which only tests, the expm microbenchmark and the expm demo link.

#include "linalg/matrix.hpp"

namespace slim::oracle {

/// e^A for a general square matrix via order-6 diagonal Pade approximant
/// with scaling and squaring.
linalg::Matrix expmPade(const linalg::Matrix& a);

}  // namespace slim::oracle
