#include "core/context.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "core/objective.hpp"
#include "opt/transforms.hpp"
#include "sim/rng.hpp"
#include "support/require.hpp"
#include "tree/branch_classes.hpp"

namespace slim::core {

using model::BranchSiteParams;
using model::Hypothesis;

void checkTreeMatchesAlignment(const seqio::CodonAlignment& alignment,
                               const tree::Tree& tree,
                               bool needsMarkedBranch) {
  std::set<std::string_view> seen;
  for (int id : tree.leaves()) {
    const std::string& label = tree.node(id).label;
    if (std::find(alignment.names.begin(), alignment.names.end(), label) ==
        alignment.names.end())
      throw std::invalid_argument(tree.source() + ": leaf '" + label +
                                  "' has no sequence in " + alignment.source);
    // Two leaves with one label would both read that sequence.
    if (!seen.insert(label).second)
      throw std::invalid_argument(tree.source() + ": leaf '" + label +
                                  "' appears more than once");
  }
  if (needsMarkedBranch && !tree::hasMarkedBranch(tree))
    throw std::invalid_argument(
        tree.source() +
        ": no branch is marked (#1); the model needs a foreground branch");
}

AnalysisContext::AnalysisContext(seqio::CodonAlignment alignment,
                                 std::shared_ptr<const tree::Tree> tree,
                                 EngineKind engine, FitOptions options)
    : alignment_(std::move(alignment)),
      patterns_(seqio::compressPatterns(alignment_)),
      pi_(model::estimateCodonFrequencies(alignment_, options.frequencyModel)),
      tree_(std::move(tree)),
      engine_(engine),
      options_(std::move(options)),
      cache_(std::make_shared<lik::SharedPropagatorCache>()) {
  SLIM_REQUIRE(tree_ != nullptr, "AnalysisContext: null tree");
  const model::ModelSpec& spec = options_.modelSpec;
  checkTreeMatchesAlignment(
      alignment_, *tree_,
      spec.kind == model::ModelKind::BranchSite || spec.numBranchClasses > 1);
}

std::shared_ptr<const AnalysisContext> AnalysisContext::create(
    const seqio::CodonAlignment& alignment, const tree::Tree& tree,
    EngineKind engine, FitOptions options) {
  return std::make_shared<const AnalysisContext>(
      alignment, std::make_shared<const tree::Tree>(tree), engine,
      std::move(options));
}

std::shared_ptr<const AnalysisContext> AnalysisContext::create(
    seqio::CodonAlignment alignment, std::shared_ptr<const tree::Tree> tree,
    EngineKind engine, FitOptions options) {
  return std::make_shared<const AnalysisContext>(
      std::move(alignment), std::move(tree), engine, std::move(options));
}

std::shared_ptr<const AnalysisContext> AnalysisContext::withOptions(
    FitOptions options, bool sharePropagatorCache) const {
  SLIM_REQUIRE(options.frequencyModel == options_.frequencyModel,
               "AnalysisContext::withOptions: frequency model must match the "
               "original (pi would be stale)");
  // Member-wise copy deliberately skips the pattern compression and frequency
  // estimation the public constructor performs — that reuse is the point.
  auto clone = std::make_shared<AnalysisContext>(*this);
  clone->options_ = std::move(options);
  if (!sharePropagatorCache)
    clone->cache_ = std::make_shared<lik::SharedPropagatorCache>();
  return clone;
}

namespace {

/// Packing/unpacking of the optimization vector:
///   [ kappa~, omega0~, (omega2~ under H1), u, v, t~_1 .. t~_B ]
/// with log / logistic / simplex transforms (see opt/transforms.hpp).
class ParameterPacking {
 public:
  ParameterPacking(Hypothesis h, int numBranches)
      : h1_(h == Hypothesis::H1),
        numBranches_(numBranches),
        kappa_(opt::Transform::logAbove(0.0)),
        omega0_(opt::Transform::logistic(0.0, 1.0)),
        omega2_(opt::Transform::logAbove(1.0)),
        // Branch lengths bounded in (0, 50] expected substitutions per
        // codon, PAML's own bound; keeps line-search trial points sane.
        branch_(opt::Transform::logistic(0.0, 50.0)) {}

  int dim() const noexcept { return (h1_ ? 5 : 4) + numBranches_; }
  int branchOffset() const noexcept { return h1_ ? 5 : 4; }

  std::vector<double> pack(const BranchSiteParams& p,
                           std::span<const double> lengths) const {
    std::vector<double> x(dim());
    x[0] = kappa_.toInternal(p.kappa);
    x[1] = omega0_.toInternal(p.omega0);
    int at = 2;
    if (h1_) x[at++] = omega2_.toInternal(p.omega2);
    const auto [u, v] = opt::simplex2ToInternal(p.p0, p.p1);
    x[at++] = u;
    x[at++] = v;
    for (int k = 0; k < numBranches_; ++k)
      x[at + k] = branch_.toInternal(std::max(lengths[k], 1e-6));
    return x;
  }

  BranchSiteParams unpackParams(std::span<const double> x) const {
    BranchSiteParams p;
    p.kappa = kappa_.toExternal(x[0]);
    p.omega0 = omega0_.toExternal(x[1]);
    int at = 2;
    p.omega2 = h1_ ? omega2_.toExternal(x[at++]) : 1.0;
    const auto [p0, p1] = opt::simplex2ToExternal(x[at], x[at + 1]);
    p.p0 = p0;
    p.p1 = p1;
    return p;
  }

  double branchLength(std::span<const double> x, int k) const {
    return branch_.toExternal(x[branchOffset() + k]);
  }

  const opt::Transform& branchTransform() const noexcept { return branch_; }

  /// kappa, omega0 and (under H1) omega2 lead the vector.
  int substitutionCoordinates() const noexcept { return h1_ ? 3 : 2; }

  /// d lnL / d x over [0, branchOffset) from the mixture gradient.
  void chain(std::span<const double> x, const lik::MixtureGradient& g,
             std::span<double> out) const {
    out[0] = g.kappa * kappa_.derivative(x[0]);
    out[1] = g.omega[model::kOmegaConserved] * omega0_.derivative(x[1]);
    int at = 2;
    if (h1_) {
      out[at] = g.omega[model::kOmegaPositive] * omega2_.derivative(x[at]);
      ++at;
    }
    std::tie(out[at], out[at + 1]) = opt::simplex2Gradient(
        x[at], x[at + 1], g.proportion[0], g.proportion[1]);
  }

 private:
  bool h1_;
  int numBranches_;
  opt::Transform kappa_, omega0_, omega2_, branch_;
};

/// One unpacked point of a branch / clade-model-C fit.
struct ScenarioPoint {
  double kappa = 2.0;
  double omega0 = 0.1;  ///< clade C conserved class; unused for branch
  double p0 = 0.45, p1 = 0.45;  ///< clade C proportions; unused for branch
  std::vector<double> classOmegas;  ///< per-branch-class (or shared) omegas
};

/// Packing for the non-branch-site scenarios.  Layouts:
///   branch   [ kappa~, w~_0 .. w~_{C-1}, t~_1 .. t~_B ]   (H0: one w~)
///   clade-c  [ kappa~, omega0~, w~_0 .. w~_{C-1}, u, v, t~_1 .. t~_B ]
/// with the same transforms as ParameterPacking where the parameter's
/// domain matches; class omegas are free positives (logAbove 0).
class ScenarioPacking {
 public:
  ScenarioPacking(const model::ModelSpec& spec, Hypothesis h, int numBranches)
      : cladeC_(spec.kind == model::ModelKind::CladeC),
        numClassOmegas_(spec.numClassOmegaParams(h)),
        numBranches_(numBranches),
        kappa_(opt::Transform::logAbove(0.0)),
        omega0_(opt::Transform::logistic(0.0, 1.0)),
        classOmega_(opt::Transform::logAbove(0.0)),
        branch_(opt::Transform::logistic(0.0, 50.0)) {}

  int omegaOffset() const noexcept { return cladeC_ ? 2 : 1; }
  int branchOffset() const noexcept {
    return omegaOffset() + numClassOmegas_ + (cladeC_ ? 2 : 0);
  }
  int dim() const noexcept { return branchOffset() + numBranches_; }

  std::vector<double> pack(const ScenarioPoint& p,
                           std::span<const double> lengths) const {
    std::vector<double> x(dim());
    x[0] = kappa_.toInternal(p.kappa);
    if (cladeC_) x[1] = omega0_.toInternal(p.omega0);
    for (int c = 0; c < numClassOmegas_; ++c)
      x[omegaOffset() + c] = classOmega_.toInternal(p.classOmegas[c]);
    if (cladeC_) {
      const auto [u, v] = opt::simplex2ToInternal(p.p0, p.p1);
      x[omegaOffset() + numClassOmegas_] = u;
      x[omegaOffset() + numClassOmegas_ + 1] = v;
    }
    for (int k = 0; k < numBranches_; ++k)
      x[branchOffset() + k] = branch_.toInternal(std::max(lengths[k], 1e-6));
    return x;
  }

  ScenarioPoint unpackPoint(std::span<const double> x) const {
    ScenarioPoint p;
    p.kappa = kappa_.toExternal(x[0]);
    if (cladeC_) p.omega0 = omega0_.toExternal(x[1]);
    p.classOmegas.resize(numClassOmegas_);
    for (int c = 0; c < numClassOmegas_; ++c)
      p.classOmegas[c] = classOmega_.toExternal(x[omegaOffset() + c]);
    if (cladeC_) {
      const auto [p0, p1] =
          opt::simplex2ToExternal(x[omegaOffset() + numClassOmegas_],
                                  x[omegaOffset() + numClassOmegas_ + 1]);
      p.p0 = p0;
      p.p1 = p1;
    }
    return p;
  }

  double branchLength(std::span<const double> x, int k) const {
    return branch_.toExternal(x[branchOffset() + k]);
  }

  const opt::Transform& branchTransform() const noexcept { return branch_; }

  /// kappa, (clade C) omega0 and the class omegas lead the vector.
  int substitutionCoordinates() const noexcept {
    return omegaOffset() + numClassOmegas_;
  }

  /// d lnL / d x over [0, branchOffset) from the mixture gradient.  The
  /// class omegas fill the spec's slots from 0 (branch) or 2 (clade C,
  /// after omega0 and the neutral class).
  void chain(std::span<const double> x, const lik::MixtureGradient& g,
             std::span<double> out) const {
    out[0] = g.kappa * kappa_.derivative(x[0]);
    if (cladeC_) out[1] = g.omega[0] * omega0_.derivative(x[1]);
    const int firstSlot = cladeC_ ? 2 : 0;
    for (int c = 0; c < numClassOmegas_; ++c) {
      const int i = omegaOffset() + c;
      out[i] = g.omega[firstSlot + c] * classOmega_.derivative(x[i]);
    }
    if (cladeC_) {
      const int at = omegaOffset() + numClassOmegas_;
      std::tie(out[at], out[at + 1]) = opt::simplex2Gradient(
          x[at], x[at + 1], g.proportion[0], g.proportion[1]);
    }
  }

 private:
  bool cladeC_;
  int numClassOmegas_;
  int numBranches_;
  opt::Transform kappa_, omega0_, classOmega_, branch_;
};

model::MixtureSpec buildScenarioSpec(const bio::GeneticCode& gc,
                                     std::span<const double> pi,
                                     const model::ModelSpec& spec,
                                     const ScenarioPoint& p) {
  if (spec.kind == model::ModelKind::Branch)
    return model::buildBranchModelSpec(gc, pi, p.kappa, p.classOmegas);
  return model::buildCladeCSpec(gc, pi, p.kappa, p.omega0, p.p0, p.p1,
                                p.classOmegas);
}

/// fitHypothesis for the branch / clade-c kinds; mirrors the branch-site
/// body below with ScenarioPacking in place of ParameterPacking.
FitResult fitScenarioHypothesis(
    const AnalysisContext& context, Hypothesis hypothesis,
    const FitOptions& fitOptions, const lik::LikelihoodOptions& likOptions,
    std::shared_ptr<lik::PropagatorCacheShard> shard,
    const FitCheckpointHooks* checkpoint) {
  const auto t0 = std::chrono::steady_clock::now();
  const model::ModelSpec& spec = fitOptions.modelSpec;
  spec.validate();

  lik::BranchSiteLikelihood eval(context.alignment(), context.patterns(),
                                 context.pi(), context.tree(), hypothesis,
                                 likOptions, std::move(shard));
  if (!fitOptions.useTreeBranchLengths)
    eval.setAllBranchLengths(fitOptions.initialBranchLength);

  const int numBranches = eval.numBranches();
  const ScenarioPacking packing(spec, hypothesis, numBranches);

  ScenarioPoint start;
  start.kappa = fitOptions.initialParams.kappa;
  start.omega0 = fitOptions.initialParams.omega0;
  start.p0 = fitOptions.initialParams.p0;
  start.p1 = fitOptions.initialParams.p1;
  start.classOmegas.assign(
      static_cast<std::size_t>(spec.numClassOmegaParams(hypothesis)),
      fitOptions.initialParams.omega2);
  // For the branch model the background class starts conserved and the
  // marked classes divergent — the same roles omega0/omega2 play for
  // branch-site A.  Clade C's class omegas are all divergent (its conserved
  // class is the separate omega0 parameter), so they all start at omega2.
  if (spec.kind == model::ModelKind::Branch)
    start.classOmegas.front() = fitOptions.initialParams.omega0;
  std::vector<double> startLengths(numBranches);
  for (int k = 0; k < numBranches; ++k) startLengths[k] = eval.branchLength(k);

  if (fitOptions.startJitterSeed != 0) {
    sim::Rng rng(fitOptions.startJitterSeed);
    auto jitter = [&rng](double v) { return v * std::exp(rng.uniform(-0.1, 0.1)); };
    start.kappa = jitter(start.kappa);
    if (spec.kind == model::ModelKind::CladeC)
      start.omega0 = std::min(0.95, jitter(start.omega0));
    for (auto& w : start.classOmegas) w = jitter(w);
    for (auto& t : startLengths) t = jitter(std::max(t, 1e-3));
  }

  std::vector<double> x0 = packing.pack(start, startLengths);

  const GradientMode mode = fitOptions.tuning.gradient;
  const bio::GeneticCode& gc = *context.alignment().code;
  LikelihoodObjective objective(
      eval, mode, LikelihoodObjective::layoutOf(packing, numBranches),
      [&packing, &gc, &context, &spec, numBranches](
          lik::BranchSiteLikelihood& e,
          std::span<const double> x) -> model::MixtureSpec {
        const ScenarioPoint p = packing.unpackPoint(x);
        for (int k = 0; k < numBranches; ++k)
          e.setBranchLength(k, packing.branchLength(x, k));
        return buildScenarioSpec(gc, context.pi(), spec, p);
      });

  const opt::BfgsState* resumeState =
      checkpoint && checkpoint->resumeFrom ? &*checkpoint->resumeFrom
                                           : nullptr;
  const auto bfgsResult =
      opt::minimizeBfgs(objective, x0, fitOptions.bfgs,
                        checkpoint ? checkpoint->sink : opt::BfgsCheckpointSink{},
                        resumeState);

  FitResult r;
  r.hypothesis = hypothesis;
  r.modelKind = spec.kind;
  r.lnL = -bfgsResult.value;
  const ScenarioPoint best = packing.unpackPoint(bfgsResult.x);
  r.params.kappa = best.kappa;
  r.params.omega0 = best.omega0;
  r.params.p0 = best.p0;
  r.params.p1 = best.p1;
  r.classOmegas = best.classOmegas;
  r.branchLengths.resize(numBranches);
  for (int k = 0; k < numBranches; ++k)
    r.branchLengths[k] = packing.branchLength(bfgsResult.x, k);
  r.iterations = bfgsResult.iterations;
  r.functionEvaluations = bfgsResult.functionEvaluations;
  r.gradientEvaluations = bfgsResult.gradientEvaluations;
  r.gradientMode = mode;
  r.simd = eval.simdLevel();
  r.backend = eval.backendKind();
  r.expm = eval.expmAlgorithm();
  r.converged = bfgsResult.converged;
  r.cancelled = bfgsResult.cancelled;
  r.message = bfgsResult.message;
  r.counters = objective.counters();
  if (resumeState != nullptr) {
    r.resumedFrom = checkpoint->resumedFromPath;
    r.iterationsReplayed = resumeState->iterations;
  }
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

}  // namespace

FitResult fitHypothesis(const AnalysisContext& context, Hypothesis hypothesis,
                        const FitOptions& fitOptions,
                        const lik::LikelihoodOptions& likOptions,
                        std::shared_ptr<lik::PropagatorCacheShard> shard,
                        const FitCheckpointHooks* checkpoint) {
  if (fitOptions.modelSpec.kind != model::ModelKind::BranchSite)
    return fitScenarioHypothesis(context, hypothesis, fitOptions, likOptions,
                                 std::move(shard), checkpoint);
  const auto t0 = std::chrono::steady_clock::now();

  lik::BranchSiteLikelihood eval(context.alignment(), context.patterns(),
                                 context.pi(), context.tree(), hypothesis,
                                 likOptions, std::move(shard));
  if (!fitOptions.useTreeBranchLengths)
    eval.setAllBranchLengths(fitOptions.initialBranchLength);

  const int numBranches = eval.numBranches();
  const ParameterPacking packing(hypothesis, numBranches);

  BranchSiteParams start = fitOptions.initialParams;
  std::vector<double> startLengths(numBranches);
  for (int k = 0; k < numBranches; ++k) startLengths[k] = eval.branchLength(k);

  if (fitOptions.startJitterSeed != 0) {
    // CodeML-style randomized start: multiplicative jitter on every value.
    // The Rng is task-local, so concurrently-running fits never share
    // generator state and every scheduling order draws the same jitter.
    sim::Rng rng(fitOptions.startJitterSeed);
    auto jitter = [&rng](double v) { return v * std::exp(rng.uniform(-0.1, 0.1)); };
    start.kappa = jitter(start.kappa);
    start.omega0 = std::min(0.95, jitter(start.omega0));
    start.omega2 = 1.0 + jitter(start.omega2 - 1.0 + 0.1);
    for (auto& t : startLengths) t = jitter(std::max(t, 1e-3));
  }

  std::vector<double> x0 = packing.pack(start, startLengths);

  // The derivative-aware objective: value() and FD probes on the fit's
  // evaluator; the analytic gradient under GradientMode::Analytic.
  const GradientMode mode = fitOptions.tuning.gradient;
  const bio::GeneticCode& gc = *context.alignment().code;
  LikelihoodObjective objective(
      eval, mode, LikelihoodObjective::layoutOf(packing, numBranches),
      [&packing, &gc, &context, hypothesis, numBranches](
          lik::BranchSiteLikelihood& e,
          std::span<const double> x) -> model::MixtureSpec {
        const BranchSiteParams p = packing.unpackParams(x);
        p.validate(hypothesis);
        for (int k = 0; k < numBranches; ++k)
          e.setBranchLength(k, packing.branchLength(x, k));
        return model::buildModelASpec(gc, context.pi(), p, hypothesis);
      });

  // Checkpoint plumbing: the starting point is still packed above even on a
  // resume — its length fixes the optimization dimension (which the restored
  // state must match) — but the driver then restores the snapshot instead of
  // evaluating at x0, continuing the recorded trajectory bit for bit.
  const opt::BfgsState* resumeState =
      checkpoint && checkpoint->resumeFrom ? &*checkpoint->resumeFrom
                                           : nullptr;
  const auto bfgsResult =
      opt::minimizeBfgs(objective, x0, fitOptions.bfgs,
                        checkpoint ? checkpoint->sink : opt::BfgsCheckpointSink{},
                        resumeState);

  FitResult r;
  r.hypothesis = hypothesis;
  r.lnL = -bfgsResult.value;
  r.params = packing.unpackParams(bfgsResult.x);
  r.branchLengths.resize(numBranches);
  for (int k = 0; k < numBranches; ++k)
    r.branchLengths[k] = packing.branchLength(bfgsResult.x, k);
  r.iterations = bfgsResult.iterations;
  r.functionEvaluations = bfgsResult.functionEvaluations;
  r.gradientEvaluations = bfgsResult.gradientEvaluations;
  r.gradientMode = mode;
  r.simd = eval.simdLevel();
  r.backend = eval.backendKind();
  r.expm = eval.expmAlgorithm();
  r.converged = bfgsResult.converged;
  r.cancelled = bfgsResult.cancelled;
  r.message = bfgsResult.message;
  r.counters = objective.counters();
  if (resumeState != nullptr) {
    r.resumedFrom = checkpoint->resumedFromPath;
    r.iterationsReplayed = resumeState->iterations;
  }
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

lik::SiteClassPosteriors siteScanAtFit(
    const AnalysisContext& context, const FitResult& h1Fit,
    const lik::LikelihoodOptions& likOptions,
    std::shared_ptr<lik::PropagatorCacheShard> shard,
    lik::EvalCounters& scanCounters) {
  lik::BranchSiteLikelihood eval(context.alignment(), context.patterns(),
                                 context.pi(), context.tree(),
                                 h1Fit.hypothesis, likOptions,
                                 std::move(shard));
  // The fit may come from a checkpoint file rather than this process (the
  // parser cannot know the tree's branch count); a short vector here must
  // be a keyed error, not an out-of-bounds read.
  SLIM_REQUIRE(h1Fit.branchLengths.size() ==
                   static_cast<std::size_t>(eval.numBranches()),
               "site scan: fit has " +
                   std::to_string(h1Fit.branchLengths.size()) +
                   " branch lengths but the tree has " +
                   std::to_string(eval.numBranches()) +
                   " branches (stale or corrupted checkpoint?)");
  for (int k = 0; k < eval.numBranches(); ++k)
    eval.setBranchLength(k, h1Fit.branchLengths[k]);
  SLIM_REQUIRE(h1Fit.modelKind != model::ModelKind::Branch,
               "site scan is undefined for the branch model (no site "
               "mixture)");
  auto posteriors =
      h1Fit.modelKind == model::ModelKind::BranchSite
          ? eval.siteClassPosteriors(h1Fit.params)
          : eval.siteClassPosteriors(model::buildCladeCSpec(
                *context.alignment().code, context.pi(), h1Fit.params.kappa,
                h1Fit.params.omega0, h1Fit.params.p0, h1Fit.params.p1,
                h1Fit.classOmegas));
  scanCounters = eval.counters();
  return posteriors;
}

PositiveSelectionTest makePositiveSelectionTest(
    FitResult h0, FitResult h1, lik::SiteClassPosteriors posteriors,
    const lik::EvalCounters& scanCounters, double df) {
  PositiveSelectionTest test;
  test.h0 = std::move(h0);
  test.h1 = std::move(h1);
  test.lrt = stat::likelihoodRatioTest(test.h0.lnL, test.h1.lnL, df);
  test.posteriors = std::move(posteriors);
  test.totalSeconds = test.h0.seconds + test.h1.seconds;
  test.counters = test.h0.counters + test.h1.counters + scanCounters;
  return test;
}

}  // namespace slim::core
