#include "core/site_models.hpp"

#include <chrono>
#include <cmath>
#include <tuple>

#include "core/objective.hpp"
#include "opt/transforms.hpp"
#include "support/parallel.hpp"
#include "support/require.hpp"

namespace slim::core {

using model::Hypothesis;
using model::MixtureSpec;
using model::SiteModelParams;

namespace {

/// Optimization vector for site models:
///   M1a: [ kappa~, omega0~, p0~, t~_1..t~_B ]
///   M2a: [ kappa~, omega0~, omega2~, u, v, t~_1..t~_B ]
class SitePacking {
 public:
  SitePacking(SiteModel m, int numBranches)
      : m2a_(m == SiteModel::M2a),
        numBranches_(numBranches),
        kappa_(opt::Transform::logAbove(0.0)),
        omega0_(opt::Transform::logistic(0.0, 1.0)),
        omega2_(opt::Transform::logAbove(1.0)),
        p0_(opt::Transform::logistic(0.0, 1.0)),
        branch_(opt::Transform::logistic(0.0, 50.0)) {}

  int dim() const noexcept { return (m2a_ ? 5 : 3) + numBranches_; }
  int branchOffset() const noexcept { return m2a_ ? 5 : 3; }

  std::vector<double> pack(const SiteModelParams& p,
                           std::span<const double> lengths) const {
    std::vector<double> x(dim());
    x[0] = kappa_.toInternal(p.kappa);
    x[1] = omega0_.toInternal(p.omega0);
    if (m2a_) {
      x[2] = omega2_.toInternal(p.omega2);
      const auto [u, v] = opt::simplex2ToInternal(p.p0, p.p1);
      x[3] = u;
      x[4] = v;
    } else {
      x[2] = p0_.toInternal(p.p0);
    }
    for (int k = 0; k < numBranches_; ++k)
      x[branchOffset() + k] = branch_.toInternal(std::max(lengths[k], 1e-6));
    return x;
  }

  SiteModelParams unpackParams(std::span<const double> x) const {
    SiteModelParams p;
    p.kappa = kappa_.toExternal(x[0]);
    p.omega0 = omega0_.toExternal(x[1]);
    if (m2a_) {
      p.omega2 = omega2_.toExternal(x[2]);
      const auto [p0, p1] = opt::simplex2ToExternal(x[3], x[4]);
      p.p0 = p0;
      p.p1 = p1;
    } else {
      p.p0 = p0_.toExternal(x[2]);
      p.p1 = 1.0 - p.p0;
    }
    return p;
  }

  double branchLength(std::span<const double> x, int k) const {
    return branch_.toExternal(x[branchOffset() + k]);
  }

  const opt::Transform& branchTransform() const noexcept { return branch_; }

  /// kappa, omega0 and (M2a) omega2 lead the vector.
  int substitutionCoordinates() const noexcept { return m2a_ ? 3 : 2; }

  /// d lnL / d x over [0, branchOffset) from the mixture gradient (slots:
  /// omega0 = 0, omega2 = 2; M1a's one proportion parameter is p0).
  void chain(std::span<const double> x, const lik::MixtureGradient& g,
             std::span<double> out) const {
    out[0] = g.kappa * kappa_.derivative(x[0]);
    out[1] = g.omega[0] * omega0_.derivative(x[1]);
    if (m2a_) {
      out[2] = g.omega[2] * omega2_.derivative(x[2]);
      std::tie(out[3], out[4]) =
          opt::simplex2Gradient(x[3], x[4], g.proportion[0], g.proportion[1]);
    } else {
      out[2] = g.proportion[0] * p0_.derivative(x[2]);
    }
  }

 private:
  bool m2a_;
  int numBranches_;
  opt::Transform kappa_, omega0_, omega2_, p0_, branch_;
};

MixtureSpec buildSpec(SiteModel m, const bio::GeneticCode& gc,
                      std::span<const double> pi, const SiteModelParams& p) {
  return m == SiteModel::M1a ? model::buildM1aSpec(gc, pi, p)
                             : model::buildM2aSpec(gc, pi, p);
}

}  // namespace

SiteModelAnalysis::SiteModelAnalysis(const seqio::CodonAlignment& alignment,
                                     const tree::Tree& tree, EngineKind engine,
                                     SiteModelFitOptions options)
    : alignment_(alignment),
      patterns_(seqio::compressPatterns(alignment)),
      // Site models are branch-homogeneous: marks (or their absence) are
      // irrelevant, and the evaluator no longer demands one.
      tree_(tree),
      engine_(engine),
      options_(options) {
  pi_ = model::estimateCodonFrequencies(alignment_, options_.frequencyModel);
}

SiteModelFitResult SiteModelAnalysis::fit(SiteModel m) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto& gc = *alignment_.code;

  // Hypothesis tag is irrelevant for the generic mixture path.
  const auto likOptions = resolvedEngineOptions(engine_, options_.tuning);
  lik::BranchSiteLikelihood eval(alignment_, patterns_, pi_, tree_,
                                 Hypothesis::H1, likOptions);

  const int numBranches = eval.numBranches();
  const SitePacking packing(m, numBranches);
  std::vector<double> startLengths(numBranches);
  for (int k = 0; k < numBranches; ++k) startLengths[k] = eval.branchLength(k);
  const auto x0 = packing.pack(options_.initialParams, startLengths);

  // Same derivative-aware objective as fitHypothesis, with the site-model
  // packing and spec builder plugged into the prepare hook.
  const GradientMode mode = options_.tuning.gradient;
  const int fanWorkers = mode == GradientMode::FiniteDiff
                             ? 1
                             : support::resolveThreadCount(likOptions.numThreads);
  LikelihoodObjective objective(
      eval, alignment_, patterns_, pi_, tree_, Hypothesis::H1, likOptions,
      mode, options_.tuning.policy, fanWorkers,
      LikelihoodObjective::layoutOf(packing, numBranches),
      [&packing, &gc, this, m, numBranches](
          lik::BranchSiteLikelihood& e,
          std::span<const double> x) -> model::MixtureSpec {
        const SiteModelParams p = packing.unpackParams(x);
        for (int k = 0; k < numBranches; ++k)
          e.setBranchLength(k, packing.branchLength(x, k));
        return buildSpec(m, gc, pi_, p);
      });

  const auto r = opt::minimizeBfgs(objective, x0, options_.bfgs);

  SiteModelFitResult out;
  out.model = m;
  out.lnL = -r.value;
  out.params = packing.unpackParams(r.x);
  out.branchLengths.resize(numBranches);
  for (int k = 0; k < numBranches; ++k)
    out.branchLengths[k] = packing.branchLength(r.x, k);
  out.iterations = r.iterations;
  out.functionEvaluations = r.functionEvaluations;
  out.gradientEvaluations = r.gradientEvaluations;
  out.gradientMode = mode;
  out.simd = eval.simdLevel();
  out.backend = eval.backendKind();
  out.converged = r.converged;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

SiteModelTest SiteModelAnalysis::run() {
  SiteModelTest test;
  test.m1a = fit(SiteModel::M1a);
  test.m2a = fit(SiteModel::M2a);
  test.lrt = stat::likelihoodRatioTest(test.m1a.lnL, test.m2a.lnL, /*df=*/2.0);

  lik::BranchSiteLikelihood eval(alignment_, patterns_, pi_, tree_,
                                 Hypothesis::H1,
                                 resolvedEngineOptions(engine_, options_.tuning));
  for (int k = 0; k < eval.numBranches(); ++k)
    eval.setBranchLength(k, test.m2a.branchLengths[k]);
  test.posteriors = eval.siteClassPosteriors(
      buildSpec(SiteModel::M2a, *alignment_.code, pi_, test.m2a.params));
  return test;
}

}  // namespace slim::core
