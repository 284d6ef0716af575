#pragma once
// The likelihood side of the derivative-aware objective contract.
//
// LikelihoodObjective adapts one fit task (an evaluator plus a parameter
// packing) onto opt::ObjectiveFunction:
//
//   * value(x) runs the fit's evaluator, with the usual infeasibility
//     mapping (transform underflow / eigensolver failure -> a large finite
//     penalty the line search backtracks from);
//   * valueAndGradient(x, grad) under GradientMode::FiniteDiff is the
//     optimizer's finite-difference gradient over value();
//   * under GradientMode::Analytic it computes the whole gradient
//     analytically in one extra pruning-style sweep (reusing the
//     evaluator's retained state when the optimizer differentiates at the
//     point it just evaluated — the common case, costing zero
//     re-evaluations): branch lengths directly, the leading
//     substitution/mixture coordinates through the packing's chain rule.
//     Only under expm = adaptive, which has no eigensystem to differentiate
//     kappa and the omegas through, are those coordinates
//     finite-differenced, on the same evaluator (its pattern-parallel sweep
//     is bit-identical for every thread count).
//
// Both fitHypothesis (branch-site model A) and the site-model fits drive
// their BFGS searches through this class; they differ only in the
// PreparePoint hook that maps an optimization vector onto (branch lengths,
// mixture spec).

#include <functional>
#include <vector>

#include "core/engine.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "model/site_mixture.hpp"
#include "opt/objective.hpp"
#include "opt/transforms.hpp"

namespace slim::core {

class LikelihoodObjective final : public opt::ObjectiveFunction {
 public:
  /// Applies point x to the evaluator — unpack and validate the parameters,
  /// set every branch length — and returns the mixture spec to evaluate.
  /// Must be self-contained (the evaluator's branch lengths start wherever
  /// the previous point left them) and throw std::invalid_argument for
  /// infeasible points.
  using PreparePoint = std::function<model::MixtureSpec(
      lik::BranchSiteLikelihood&, std::span<const double>)>;

  /// Maps the evaluator's mixture gradient at point x onto the leading
  /// block [0, branchOffset): writes d lnL / d x_i there, applying the
  /// packing's transform Jacobians.
  using ChainRule = std::function<void(
      std::span<const double> x, const lik::MixtureGradient&,
      std::span<double> dLnL)>;

  /// Where the branch-length block lives in the optimization vector.
  struct Layout {
    int branchOffset = 0;  ///< Coordinates [branchOffset, branchOffset + n).
    int numBranches = 0;
    /// Internal-coordinate -> branch-length transform (chain-rule factor for
    /// the analytic block).
    opt::Transform branchTransform = opt::Transform::identity();
    /// The leading block's chain rule (required; a no-op when
    /// branchOffset == 0).
    ChainRule chain;
    /// How many leading coordinates carry kappa and the omegas — the ones
    /// finite-differenced when the evaluator cannot differentiate them
    /// (expm = adaptive).
    int substitutionCoordinates = 0;
  };

  /// The layout of a fit packing (anything with branchOffset(),
  /// branchTransform(), substitutionCoordinates() and chain()); the packing
  /// must outlive the objective.
  template <class Packing>
  static Layout layoutOf(const Packing& packing, int numBranches) {
    return {packing.branchOffset(), numBranches, packing.branchTransform(),
            [&packing](std::span<const double> x,
                       const lik::MixtureGradient& g, std::span<double> out) {
              packing.chain(x, g, out);
            },
            packing.substitutionCoordinates()};
  }

  /// `evaluator` is the fit's evaluator (caller-owned, must outlive this
  /// object).
  LikelihoodObjective(lik::BranchSiteLikelihood& evaluator, GradientMode mode,
                      Layout layout, PreparePoint prepare);

  double value(std::span<const double> x) override;
  opt::GradientResult valueAndGradient(
      std::span<const double> x, std::span<double> grad,
      const opt::GradientOptions& options) override;

  /// Engine counters of the whole fit.
  const lik::EvalCounters& counters() const noexcept {
    return main_.counters();
  }

  GradientMode mode() const noexcept { return mode_; }

 private:
  lik::BranchSiteLikelihood& main_;
  GradientMode mode_;
  Layout layout_;
  PreparePoint prepare_;

  // The last point value() evaluated (and whether the evaluator's retained
  // state is valid for it) — the analytic gradient reuses that state
  // instead of re-evaluating when BFGS differentiates at the point the line
  // search just accepted.
  std::vector<double> lastX_;
  bool lastValid_ = false;
};

}  // namespace slim::core
