#include "core/context.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <span>
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
  checkTreeMatchesAlignment(alignment_, *tree_,
                            options_.modelSpec.needsMarkedBranch());
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
  // A context built for a site model never checked for a marked branch.
  if (options.modelSpec.needsMarkedBranch())
    checkTreeMatchesAlignment(alignment_, *tree_, true);
  // Member-wise copy deliberately skips the pattern compression and frequency
  // estimation the public constructor performs — that reuse is the point.
  auto clone = std::make_shared<AnalysisContext>(*this);
  clone->options_ = std::move(options);
  if (!sharePropagatorCache)
    clone->cache_ = std::make_shared<lik::SharedPropagatorCache>();
  return clone;
}

namespace {

/// One point of a fit: the classic parameter set plus the per-branch-class
/// omegas (empty for the kinds without them).  Parameters a kind does not
/// have keep their BranchSiteParams defaults.
struct FitPoint {
  BranchSiteParams params;
  std::vector<double> classOmegas;
};

/// The optimization vector of one fit, read off the kind's parameter table
/// (model::ModelSpec::parameters): the table's coordinates in order, then
/// one coordinate per branch length.
class ParameterPacking {
 public:
  using Name = model::FreeParameter::Name;

  ParameterPacking(const model::ModelSpec& spec, Hypothesis h, int numBranches)
      : table_(spec.parameters(h)),
        numBranches_(numBranches),
        // Branch lengths bounded in (0, 50] expected substitutions per
        // codon, PAML's own bound; keeps line-search trial points sane.
        branch_(opt::Transform::logistic(0.0, 50.0)) {
    for (const auto& entry : table_) {
      // kappa and the omegas lead every layout; the proportions follow.
      if (entry.name != Name::Proportions && entry.name != Name::P0)
        substitutionCoordinates_ += entry.coordinates;
      branchOffset_ += entry.coordinates;
    }
  }

  int dim() const noexcept { return branchOffset_ + numBranches_; }
  int branchOffset() const noexcept { return branchOffset_; }

  /// CodeML-style randomized start: multiplicative jitter on every value
  /// the table marks, in table order, then on every branch length.
  void jitter(std::uint64_t seed, FitPoint& p,
              std::span<double> lengths) const {
    // The Rng is task-local, so concurrently-running fits never share
    // generator state and every scheduling order draws the same jitter.
    sim::Rng rng(seed);
    auto draw = [&rng](double v) { return v * std::exp(rng.uniform(-0.1, 0.1)); };
    using Jitter = model::FreeParameter::Jitter;
    for (const auto& entry : table_) {
      for (double& v : values(entry, p)) {
        switch (entry.jitter) {
          case Jitter::None: break;
          case Jitter::Scale: v = draw(v); break;
          case Jitter::ScaleBelow1: v = std::min(0.95, draw(v)); break;
          case Jitter::ScaleAbove1: v = 1.0 + draw(v - 1.0 + 0.1); break;
        }
      }
    }
    for (auto& t : lengths) t = draw(std::max(t, 1e-3));
  }

  std::vector<double> pack(FitPoint p, std::span<const double> lengths) const {
    std::vector<double> x(dim());
    int at = 0;
    for (const auto& entry : table_) {
      if (entry.name == Name::Proportions) {
        std::tie(x[at], x[at + 1]) =
            opt::simplex2ToInternal(p.params.p0, p.params.p1);
      } else {
        const auto v = values(entry, p);
        for (int c = 0; c < entry.coordinates; ++c)
          x[at + c] = entry.transform.toInternal(v[c]);
      }
      at += entry.coordinates;
    }
    for (int k = 0; k < numBranches_; ++k)
      x[at + k] = branch_.toInternal(std::max(lengths[k], 1e-6));
    return x;
  }

  FitPoint unpack(std::span<const double> x) const {
    FitPoint p;
    int at = 0;
    for (const auto& entry : table_) {
      switch (entry.name) {
        case Name::Proportions:
          std::tie(p.params.p0, p.params.p1) =
              opt::simplex2ToExternal(x[at], x[at + 1]);
          break;
        case Name::P0:
          p.params.p0 = entry.transform.toExternal(x[at]);
          p.params.p1 = 1.0 - p.params.p0;
          break;
        case Name::Omega2:
          p.params.omega2 = entry.coordinates == 0
                                ? 1.0
                                : entry.transform.toExternal(x[at]);
          break;
        case Name::ClassOmegas:
          p.classOmegas.resize(static_cast<std::size_t>(entry.coordinates));
          [[fallthrough]];
        default: {
          const auto v = values(entry, p);
          for (int c = 0; c < entry.coordinates; ++c)
            v[c] = entry.transform.toExternal(x[at + c]);
        }
      }
      at += entry.coordinates;
    }
    return p;
  }

  double branchLength(std::span<const double> x, int k) const {
    return branch_.toExternal(x[branchOffset_ + k]);
  }

  const opt::Transform& branchTransform() const noexcept { return branch_; }

  /// The leading coordinates carrying kappa and the omegas.
  int substitutionCoordinates() const noexcept {
    return substitutionCoordinates_;
  }

  /// d lnL / d x over [0, branchOffset) from the mixture gradient.
  void chain(std::span<const double> x, const lik::MixtureGradient& g,
             std::span<double> out) const {
    int at = 0;
    for (const auto& entry : table_) {
      switch (entry.name) {
        case Name::Kappa:
          out[at] = g.kappa * entry.transform.derivative(x[at]);
          break;
        case Name::Proportions:
          std::tie(out[at], out[at + 1]) = opt::simplex2Gradient(
              x[at], x[at + 1], g.proportion[0], g.proportion[1]);
          break;
        case Name::P0:
          out[at] = g.proportion[0] * entry.transform.derivative(x[at]);
          break;
        default:  // the omegas
          for (int c = 0; c < entry.coordinates; ++c)
            out[at + c] = g.omega[entry.omegaSlot + c] *
                          entry.transform.derivative(x[at + c]);
      }
      at += entry.coordinates;
    }
  }

 private:
  /// The model values one table entry covers (the simplex pair: none).
  static std::span<double> values(const model::FreeParameter& entry,
                                  FitPoint& p) {
    switch (entry.name) {
      case Name::Kappa: return {&p.params.kappa, 1};
      case Name::Omega0: return {&p.params.omega0, 1};
      case Name::Omega2: return {&p.params.omega2, 1};
      case Name::P0: return {&p.params.p0, 1};
      case Name::ClassOmegas: return p.classOmegas;
      case Name::Proportions: break;
    }
    return {};
  }

  std::vector<model::FreeParameter> table_;
  int numBranches_;
  int branchOffset_ = 0;
  int substitutionCoordinates_ = 0;
  opt::Transform branch_;
};

}  // namespace

FitResult fitHypothesis(const AnalysisContext& context, Hypothesis hypothesis,
                        const FitOptions& fitOptions,
                        const lik::LikelihoodOptions& likOptions,
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
  const ParameterPacking packing(spec, hypothesis, numBranches);

  FitPoint start{fitOptions.initialParams,
                 spec.startClassOmegas(fitOptions.initialParams, hypothesis)};
  std::vector<double> startLengths(numBranches);
  for (int k = 0; k < numBranches; ++k) startLengths[k] = eval.branchLength(k);
  if (fitOptions.startJitterSeed != 0)
    packing.jitter(fitOptions.startJitterSeed, start, startLengths);

  std::vector<double> x0 = packing.pack(start, startLengths);

  // The derivative-aware objective: value() and FD probes on the fit's
  // evaluator; the analytic gradient under GradientMode::Analytic.
  const GradientMode mode = fitOptions.tuning.gradient;
  const bio::GeneticCode& gc = *context.alignment().code;
  LikelihoodObjective objective(
      eval, mode, LikelihoodObjective::layoutOf(packing, numBranches),
      [&packing, &gc, &context, &spec, hypothesis, numBranches](
          lik::BranchSiteLikelihood& e,
          std::span<const double> x) -> model::MixtureSpec {
        const FitPoint p = packing.unpack(x);
        for (int k = 0; k < numBranches; ++k)
          e.setBranchLength(k, packing.branchLength(x, k));
        return spec.mixtureAt(gc, context.pi(), p.params, p.classOmegas,
                              hypothesis);
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
  r.modelKind = spec.kind;
  r.lnL = -bfgsResult.value;
  FitPoint best = packing.unpack(bfgsResult.x);
  r.params = best.params;
  r.classOmegas = std::move(best.classOmegas);
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
  const model::ModelSpec& spec = context.options().modelSpec;
  SLIM_REQUIRE(h1Fit.modelKind == spec.kind,
               std::string("site scan: the fit is a '") +
                   model::modelKindName(h1Fit.modelKind) +
                   "' fit but the context fits '" +
                   model::modelKindName(spec.kind) + "'");
  SLIM_REQUIRE(spec.hasSiteMixture(),
               "site scan is undefined for the branch model (no site "
               "mixture)");
  auto posteriors = eval.siteClassPosteriors(
      spec.mixtureAt(*context.alignment().code, context.pi(), h1Fit.params,
                     h1Fit.classOmegas, h1Fit.hypothesis));
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
