#pragma once
// The likelihood side of the derivative-aware objective contract.
//
// LikelihoodObjective adapts one fit task (an evaluator plus a parameter
// packing) onto opt::ObjectiveFunction:
//
//   * value(x) runs the fit's main evaluator, with the usual infeasibility
//     mapping (transform underflow / eigensolver failure -> a large finite
//     penalty the line search backtracks from);
//   * evaluateMany(points) fans independent probe points — the coordinates
//     of a finite-difference gradient — across a pool of *single-threaded*
//     sibling evaluators on a core::TaskScheduler, under the same
//     ParallelPolicy that governs task-level fit fan-out.  Points are
//     statically partitioned by index (point i -> evaluator i mod poolSize),
//     so which evaluator computes which point never depends on scheduling;
//     with exact-keyed propagator caches the values are bit-identical to the
//     sequential loop for every worker count.  Each pool evaluator keeps its
//     own persistent cache shard: a shard is exclusive to one running task
//     (propagator_cache.hpp), so concurrent probes must not share one, but
//     per-evaluator shards stay warm across every gradient of the fit;
//   * valueAndGradient(x, grad) under GradientMode::Analytic computes the
//     whole gradient analytically in one extra pruning-style sweep (reusing
//     the evaluator's retained state when the optimizer differentiates at
//     the point it just evaluated — the common case, costing zero
//     re-evaluations): branch lengths directly, the leading
//     substitution/mixture coordinates through the packing's chain rule.
//     Only under expm = adaptive, which has no eigensystem to differentiate
//     kappa and the omegas through, are those coordinates finite-differenced
//     through evaluateMany.
//
// Both fitHypothesis (branch-site model A) and the site-model fits drive
// their BFGS searches through this class; they differ only in the
// PreparePoint hook that maps an optimization vector onto (branch lengths,
// mixture spec).

#include <functional>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "core/scheduler.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "model/site_mixture.hpp"
#include "opt/objective.hpp"
#include "opt/transforms.hpp"

namespace slim::core {

class LikelihoodObjective final : public opt::ObjectiveFunction {
 public:
  /// Applies point x to an evaluator — unpack and validate the parameters,
  /// set every branch length — and returns the mixture spec to evaluate.
  /// Must be self-contained (it also runs against pool evaluators, whose
  /// branch lengths start wherever the previous probe left them) and throw
  /// std::invalid_argument for infeasible points.
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

  /// `evaluator` is the fit's main evaluator (caller-owned, must outlive
  /// this object).  `poolOptions` configures probe evaluators — pass the
  /// fit's resolved engine options with numThreads forced to 1, since the
  /// parallelism moves up to the coordinate fan-out.  `fanWorkers` <= 1
  /// disables the pool (every probe runs on the main evaluator).
  LikelihoodObjective(lik::BranchSiteLikelihood& evaluator,
                      const seqio::CodonAlignment& alignment,
                      const seqio::SitePatterns& patterns,
                      const std::vector<double>& pi, const tree::Tree& tree,
                      model::Hypothesis hypothesis,
                      lik::LikelihoodOptions poolOptions, GradientMode mode,
                      ParallelPolicy policy, int fanWorkers, Layout layout,
                      PreparePoint prepare);

  double value(std::span<const double> x) override;
  std::vector<double> evaluateMany(
      const std::vector<std::vector<double>>& points) override;
  /// True exactly when evaluateMany would fan a 2-point batch (the
  /// speculative pair a caller like Nelder-Mead would add) instead of
  /// falling back to the sequential loop.
  bool batchEvaluationProfitable() const override { return wouldFan(2); }
  opt::GradientResult valueAndGradient(
      std::span<const double> x, std::span<double> grad,
      const opt::GradientOptions& options) override;

  /// Engine counters of the whole fit: the main evaluator plus every pool
  /// evaluator, merged in fixed (pool-index) order.
  lik::EvalCounters counters() const;

  GradientMode mode() const noexcept { return mode_; }
  int poolSize() const noexcept { return static_cast<int>(pool_.size()); }

 private:
  double evalOn(lik::BranchSiteLikelihood& evaluator,
                std::span<const double> x);
  /// Whether a batch of numPoints would be fanned across the probe pool
  /// under the policy (the single gate evaluateMany and
  /// batchEvaluationProfitable share).
  bool wouldFan(int numPoints) const;
  void ensurePool(int evaluators);

  lik::BranchSiteLikelihood& main_;
  const seqio::CodonAlignment& alignment_;
  const seqio::SitePatterns& patterns_;
  const std::vector<double>& pi_;
  const tree::Tree& tree_;
  model::Hypothesis hypothesis_;
  lik::LikelihoodOptions poolOptions_;
  GradientMode mode_;
  ParallelPolicy policy_;
  int fanWorkers_;
  Layout layout_;
  PreparePoint prepare_;

  std::unique_ptr<TaskScheduler> scheduler_;  // created on first fan-out
  std::vector<std::unique_ptr<lik::BranchSiteLikelihood>> pool_;

  // The last point value() evaluated on the main evaluator (and whether the
  // evaluator's retained state is valid for it) — the analytic gradient
  // reuses that state instead of re-evaluating when BFGS differentiates at
  // the point the line search just accepted.
  std::vector<double> lastX_;
  bool lastValid_ = false;
};

}  // namespace slim::core
