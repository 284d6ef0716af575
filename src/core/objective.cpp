#include "core/objective.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/require.hpp"

namespace slim::core {

namespace {

/// The infeasibility penalty: large and finite, so the line search
/// backtracks from it.
constexpr double kInfeasible = 1e100;

bool sameLengthEqual(const std::vector<double>& a, std::span<const double> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

LikelihoodObjective::LikelihoodObjective(lik::BranchSiteLikelihood& evaluator,
                                         GradientMode mode, Layout layout,
                                         PreparePoint prepare)
    : main_(evaluator),
      mode_(mode),
      layout_(std::move(layout)),
      prepare_(std::move(prepare)) {
  SLIM_REQUIRE(prepare_ != nullptr, "LikelihoodObjective: null prepare hook");
  SLIM_REQUIRE(layout_.branchOffset >= 0 &&
                   layout_.numBranches == main_.numBranches(),
               "LikelihoodObjective: layout does not match the evaluator");
  SLIM_REQUIRE(layout_.chain != nullptr,
               "LikelihoodObjective: layout without a chain rule");
}

double LikelihoodObjective::value(std::span<const double> x) {
  // Extreme line-search trial points can underflow a transform to its
  // boundary (e.g. kappa == 0) or overflow a kernel; both count as
  // infeasible and the search backtracks.
  double f = kInfeasible;
  try {
    const model::MixtureSpec spec = prepare_(main_, x);
    const double lnL = main_.logLikelihood(spec);
    if (std::isfinite(lnL)) f = -lnL;
  } catch (const std::invalid_argument&) {
    // infeasible parameters: f stays kInfeasible
  } catch (const std::runtime_error&) {
    // eigensolver non-convergence on degenerate input
  }
  lastX_.assign(x.begin(), x.end());
  lastValid_ = f != kInfeasible;
  return f;
}

opt::GradientResult LikelihoodObjective::valueAndGradient(
    std::span<const double> x, std::span<double> grad,
    const opt::GradientOptions& options) {
  if (mode_ != GradientMode::Analytic || layout_.numBranches == 0)
    return ObjectiveFunction::valueAndGradient(x, grad, options);

  // The analytic gradient writes exactly two blocks — the leading block
  // [0, branchOffset) and the branch tail — so they must tile the whole
  // vector or a coordinate would silently keep its stale gradient entry.
  SLIM_REQUIRE(layout_.branchOffset + layout_.numBranches ==
                   static_cast<int>(x.size()),
               "LikelihoodObjective: branch block must end the vector");

  opt::GradientResult result;
  result.gradientSweeps = 1;
  const bool reuse = lastValid_ && sameLengthEqual(lastX_, x);
  lik::MixtureGradient g;
  double lnL;
  try {
    if (reuse) {
      lnL = main_.gradientAtLastEvaluation(g);
    } else {
      const model::MixtureSpec spec = prepare_(main_, x);
      lnL = main_.logLikelihoodGradient(spec, g);
      ++result.functionEvaluations;
    }
  } catch (const std::invalid_argument&) {
    lnL = -std::numeric_limits<double>::infinity();
  } catch (const std::runtime_error&) {
    lnL = -std::numeric_limits<double>::infinity();
  }
  if (!std::isfinite(lnL)) {
    // Infeasible at a gradient point (the optimizer normally never asks
    // here): degrade to the plain FD path rather than return garbage.
    lastValid_ = false;
    return ObjectiveFunction::valueAndGradient(x, grad, options);
  }
  lastX_.assign(x.begin(), x.end());
  lastValid_ = true;

  const double f0 = std::isnan(options.knownValue) ? -lnL : options.knownValue;
  result.value = f0;

  // Branch block: d(-lnL)/dx_i = -(d lnL/d t) * (d t/d x_i).
  for (int k = 0; k < layout_.numBranches; ++k) {
    const int i = layout_.branchOffset + k;
    grad[i] = -g.branch[k] * layout_.branchTransform.derivative(x[i]);
  }

  // Leading block: the packing's chain rule over the mixture gradient.
  // What the evaluator cannot differentiate (kappa and the omegas under
  // expm = adaptive) takes the ordinary FD path over value(), so it shares
  // one step rule with a pure-fd gradient.
  const auto lead = grad.first(static_cast<std::size_t>(layout_.branchOffset));
  layout_.chain(x, g, lead);
  for (double& v : lead) v = -v;
  const int fdCoordinates = main_.substitutionGradientAnalytic()
                                ? 0
                                : layout_.substitutionCoordinates;
  result.analyticCoordinates = static_cast<int>(x.size()) - fdCoordinates;
  if (fdCoordinates > 0)
    opt::fdGradient(*this, x, f0, options.relStep, options.central,
                    grad.first(static_cast<std::size_t>(fdCoordinates)),
                    result.functionEvaluations);
  return result;
}

}  // namespace slim::core
