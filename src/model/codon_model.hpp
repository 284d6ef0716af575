#pragma once
// The codon substitution model of Eq. 1 (Goldman-Yang / Nielsen-Yang form).
//
//          | 0            two or more nucleotide differences
//          | pi_j         synonymous transversion
//   q_ij = | kappa pi_j   synonymous transition
//          | omega pi_j   non-synonymous transversion
//          | omega kappa pi_j  non-synonymous transition
//
// Factorization used throughout: Q = S Pi with S symmetric (s_ij equals the
// kappa/omega factor, s_ji = s_ij) and Pi = diag(pi).  This is what makes the
// Eq. 2 symmetrization A = Pi^{1/2} S Pi^{1/2} exact.

#include <span>
#include <vector>

#include "bio/genetic_code.hpp"
#include "linalg/matrix.hpp"

namespace slim::model {

/// Fill the symmetric exchangeability matrix S(kappa, omega) over the sense
/// codons of gc: s_ij = kappa^[transition] * omega^[non-synonymous] for
/// single-nucleotide-difference pairs, 0 otherwise (including the diagonal).
/// Non-null dKappa / dOmega receive the elementwise derivatives dS/dkappa /
/// dS/domega from the same pass: each s_ij is a monomial, so a derivative
/// entry is the *other* factor on the pairs where the parameter appears, 0
/// elsewhere.
void buildExchangeability(const bio::GeneticCode& gc, double kappa,
                          double omega, linalg::Matrix& s,
                          linalg::Matrix* dKappa = nullptr,
                          linalg::Matrix* dOmega = nullptr);

/// Build the instantaneous rate matrix Q = S Pi with the diagonal set to
/// minus the row sums, and return the expected substitution rate
/// mu = -sum_i pi_i q_ii of the *unscaled* matrix.  Q is not normalized here;
/// the branch-site model applies one common scale across site classes.
double buildRateMatrix(const linalg::Matrix& s, std::span<const double> pi,
                       linalg::Matrix& q);

/// Expected rate -sum_i pi_i q_ii of a rate matrix.
double expectedRate(const linalg::Matrix& q, std::span<const double> pi);

/// Q := Q / factor.
void scaleRateMatrix(linalg::Matrix& q, double factor);

/// Structural checks for a CTMC generator: off-diagonal >= 0, rows sum to ~0,
/// detailed balance pi_i q_ij == pi_j q_ji.  Throws on violation; used in
/// tests and debug paths.
void validateGenerator(const linalg::Matrix& q, std::span<const double> pi,
                       double tol = 1e-10);

}  // namespace slim::model
