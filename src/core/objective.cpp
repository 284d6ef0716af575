#include "core/objective.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/require.hpp"

namespace slim::core {

namespace {

/// The infeasibility penalty: large, finite, and identical on every path so
/// serial and fanned probe evaluations agree bit for bit.
constexpr double kInfeasible = 1e100;

bool sameLengthEqual(const std::vector<double>& a, std::span<const double> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

LikelihoodObjective::LikelihoodObjective(
    lik::BranchSiteLikelihood& evaluator, const seqio::CodonAlignment& alignment,
    const seqio::SitePatterns& patterns, const std::vector<double>& pi,
    const tree::Tree& tree, model::Hypothesis hypothesis,
    lik::LikelihoodOptions poolOptions, GradientMode mode,
    ParallelPolicy policy, int fanWorkers, Layout layout, PreparePoint prepare)
    : main_(evaluator),
      alignment_(alignment),
      patterns_(patterns),
      pi_(pi),
      tree_(tree),
      hypothesis_(hypothesis),
      poolOptions_(poolOptions),
      mode_(mode),
      policy_(policy),
      fanWorkers_(fanWorkers),
      layout_(layout),
      prepare_(std::move(prepare)) {
  SLIM_REQUIRE(prepare_ != nullptr, "LikelihoodObjective: null prepare hook");
  SLIM_REQUIRE(layout_.branchOffset >= 0 &&
                   layout_.numBranches == main_.numBranches(),
               "LikelihoodObjective: layout does not match the evaluator");
  SLIM_REQUIRE(layout_.chain != nullptr,
               "LikelihoodObjective: layout without a chain rule");
  // Probe evaluators must be single-threaded: the parallelism lives in the
  // coordinate fan-out, exactly as task-level fit fan-out forces
  // single-threaded pattern sweeps.
  poolOptions_.numThreads = 1;
  // The scheduler exists whenever fanning is possible at all (its worker
  // pool is still created lazily), so wouldFan can consult the policy.
  if (mode_ != GradientMode::FiniteDiff && fanWorkers_ > 1)
    scheduler_ = std::make_unique<TaskScheduler>(fanWorkers_);
}

bool LikelihoodObjective::wouldFan(int numPoints) const {
  return scheduler_ != nullptr &&
         scheduler_->useTaskLevel(std::min(fanWorkers_, numPoints), policy_);
}

double LikelihoodObjective::evalOn(lik::BranchSiteLikelihood& evaluator,
                                   std::span<const double> x) {
  // Extreme line-search trial points can underflow a transform to its
  // boundary (e.g. kappa == 0) or overflow a kernel; both count as
  // infeasible and the search backtracks.
  try {
    const model::MixtureSpec spec = prepare_(evaluator, x);
    const double lnL = evaluator.logLikelihood(spec);
    return std::isfinite(lnL) ? -lnL : kInfeasible;
  } catch (const std::invalid_argument&) {
    return kInfeasible;
  } catch (const std::runtime_error&) {
    return kInfeasible;  // eigensolver non-convergence on degenerate input
  }
}

double LikelihoodObjective::value(std::span<const double> x) {
  const double f = evalOn(main_, x);
  lastX_.assign(x.begin(), x.end());
  lastValid_ = f != kInfeasible;
  return f;
}

void LikelihoodObjective::ensurePool(int evaluators) {
  while (static_cast<int>(pool_.size()) < evaluators) {
    // Null shard: with caching on, each probe evaluator creates its own
    // private shard at construction — exclusive to it for the whole fit
    // (the shard-per-task contract) yet warm across every gradient call.
    pool_.push_back(std::make_unique<lik::BranchSiteLikelihood>(
        alignment_, patterns_, pi_, tree_, hypothesis_, poolOptions_));
  }
}

std::vector<double> LikelihoodObjective::evaluateMany(
    const std::vector<std::vector<double>>& points) {
  const int numPoints = static_cast<int>(points.size());
  std::vector<double> values(points.size());

  // Fan only when the mode asks for it and the policy would also fan this
  // many independent tasks; otherwise run the sequential loop on the main
  // evaluator (which may itself be pattern-parallel).
  if (!wouldFan(numPoints)) {
    for (int i = 0; i < numPoints; ++i) values[i] = evalOn(main_, points[i]);
    lastValid_ = false;  // main_'s state is now at the last probe point
    return values;
  }

  const int evaluators = std::min(fanWorkers_, numPoints);
  ensurePool(evaluators);
  // Static index partition: point i always runs on evaluator i mod E, so the
  // probe history each evaluator (and its cache shard) sees is a function of
  // the fit alone, never of thread scheduling.
  scheduler_->run(evaluators, ParallelPolicy::TaskLevel, [&](int e) {
    for (int i = e; i < numPoints; i += evaluators)
      values[i] = evalOn(*pool_[e], points[i]);
  });
  return values;
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
  // expm = adaptive) takes the ordinary FD path over this objective's
  // evaluateMany, so it shares one step rule with a pure-fd gradient.
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

lik::EvalCounters LikelihoodObjective::counters() const {
  lik::EvalCounters total = main_.counters();
  for (const auto& e : pool_) total += e->counters();
  return total;
}

}  // namespace slim::core
