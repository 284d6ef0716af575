#pragma once
// Higham–Al-Mohy adaptive scaling-and-squaring matrix exponential.
//
// The engine's default propagator path (expm/codon_eigen_system.hpp) rests
// on the reversibility trick: Q similar to a symmetric matrix via the
// Pi^{1/2} sandwich, so P(t) = e^{Qt} comes from one symmetric
// eigendecomposition per Q and a rank update per branch length.  That trick
// dies the moment Q is not reversible — Markov-modulated/covarion models,
// non-stationary models (ROADMAP scenario-diversity item) — and this module
// is the propagator builder that still works there: the degree-adaptive
// Padé scaling-and-squaring algorithm of Higham (SIAM J. Matrix Anal. 2005)
// as refined by Al-Mohy & Higham, the method behind expm() in
// MATLAB/SciPy/Eigen and uni20's expokit port (SNIPPETS.md).
//
// Versus the fixed order-6 oracle in tests/oracle/pade.cpp (kept as the
// test-reference it is), this implementation
//   * picks the cheapest Padé degree m in {3, 5, 7, 9, 13} whose backward
//     error bound covers ||A||_1 (the theta_m table), so small ||Qt|| — the
//     common case for codon branch lengths — costs two or three
//     matrix-matrix products instead of six plus squarings;
//   * scales by 2^{-s} only when ||A||_1 exceeds theta_13, with the minimal
//     s, and squares back s times;
//   * routes every matrix product through a caller-chosen kernel table, so
//     the adaptive path accelerates under whatever compute backend the
//     evaluator resolved (backend/compute_backend.hpp).
//
// Selection is per-model via the `expm = eigen | adaptive` ctl key
// (LikelihoodOptions::expm); the evaluator cross-validates the two builders
// in tests/backend_test.cpp (<= 1e-12 against the eigen path on reversible
// Q, Taylor-series reference on non-reversible Q).

#include <string_view>

#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"

namespace slim::backend {

/// Which propagator builder the evaluator uses (`expm =` ctl key).
enum class ExpmAlgorithm {
  Eigen,     ///< Symmetric-eigendecomposition path (reversible Q only).
  Adaptive,  ///< Adaptive Padé scaling-and-squaring (general Q).
};

const char* expmAlgorithmName(ExpmAlgorithm a) noexcept;

/// Parse a ctl-file value ("eigen", "adaptive").  Returns false on unknown
/// text (out untouched).
bool parseExpmAlgorithm(std::string_view text, ExpmAlgorithm& out) noexcept;

/// Scratch for expmAdaptive, reusable across calls (the evaluator keeps one
/// per worker).  Matrices are resized on demand; no call-to-call state.
struct AdaptiveExpmWorkspace {
  linalg::Matrix scaled, a2, a4, a6, poly, u, v, tmp;
};

/// out := e^a for a general square matrix; returns the number of squarings
/// performed (0 when ||a||_1 <= theta_13).  All matrix products go through
/// `kern` (pass linalg::simdKernels(SimdLevel::Scalar) for the bit-stable
/// reference).  Throws std::invalid_argument if the Padé denominator is
/// singular to working precision (never the case for finite input within
/// the theta bounds).
int expmAdaptive(const linalg::Matrix& a, const linalg::SimdKernels& kern,
                 AdaptiveExpmWorkspace& ws, linalg::Matrix& out);

/// Convenience form: scalar kernels, throwaway workspace.
linalg::Matrix expmAdaptive(const linalg::Matrix& a);

}  // namespace slim::backend
