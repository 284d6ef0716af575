#pragma once
// Derivative-free simplex minimization (Nelder & Mead 1965).
//
// The BFGS driver needs (numParams + 1) likelihood evaluations per
// finite-difference gradient; on trees with hundreds of branches a
// derivative-free restart can be the more robust choice near non-smooth
// regions (parameter bounds, mixture-weight boundaries).  Production
// phylogenetics packages ship both; this one doubles as an independent
// optimizer to cross-check BFGS results in tests.
//
// The initial simplex and the shrink step are batched through
// ObjectiveFunction::evaluateMany; the reflection, expansion and contraction
// points are evaluated one at a time, the expansion only when the
// reflection beats the best vertex.

#include <string>

#include "opt/cancel.hpp"
#include "opt/checkpoint.hpp"
#include "opt/objective.hpp"

namespace slim::opt {

struct NelderMeadOptions {
  int maxIterations = 2000;        ///< Reflect/expand/contract/shrink steps.
  double initialStep = 0.5;        ///< Per-coordinate initial simplex offset.
  double fTolerance = 1e-10;       ///< Stop when spread(f) < fTol*(1+|best|).
  double xTolerance = 1e-9;        ///< ... and simplex diameter below this.
  /// Polled at iteration boundaries (the checkpoint snapshot points); see
  /// BfgsOptions::cancel for the contract.
  CancelPredicate cancel;
};

struct NelderMeadResult {
  std::vector<double> x;
  double value = 0;
  int iterations = 0;
  long functionEvaluations = 0;
  bool converged = false;
  /// True when NelderMeadOptions::cancel stopped the fit; `x`/`value` hold
  /// the best simplex vertex at that point and `message` is "cancelled".
  bool cancelled = false;
  std::string message;
};

/// Minimize f from x0.  The objective may return +inf/NaN for infeasible
/// points (treated as worse than any finite value).
///
/// `sink`, when set, receives a resumable NelderMeadState after the initial
/// simplex evaluation and after every completed iteration.  `source`, when
/// non-null, restores such a state instead of building the simplex from x0
/// (whose length only fixes the dimension); the continued run repeats the
/// uninterrupted trajectory bit for bit.  A source whose dimensions disagree
/// with x0 throws std::invalid_argument.
NelderMeadResult minimizeNelderMead(ObjectiveFunction& f,
                                    std::span<const double> x0,
                                    const NelderMeadOptions& options = {},
                                    const NelderMeadCheckpointSink& sink = {},
                                    const NelderMeadState* source = nullptr);

/// Legacy convenience overload over a std::function objective.
NelderMeadResult minimizeNelderMead(const Objective& f,
                                    std::span<const double> x0,
                                    const NelderMeadOptions& options = {});

}  // namespace slim::opt
