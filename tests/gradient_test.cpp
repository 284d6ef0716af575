// The derivative-aware objective API: analytic gradients against the
// finite-difference reference.
//
//  * correctness: analytic d lnL / d t matches central finite differences at
//    random feasible points, under both hypothesis parameterizations and
//    across engine presets / thread counts;
//  * the full analytic gradient (kappa, omega slots, proportions, branch
//    lengths) matches central finite differences on every internal
//    coordinate for every model instance, at interior and near-boundary
//    points, is bit-identical across thread counts, and leaves eigen-path
//    fits with no FD probe at all (adaptive expm keeps FD for kappa/omega);
//  * end-to-end: full H0/H1 fits reach the same maximum under both
//    GradientModes, with `analytic` cutting likelihood evaluations per
//    converged fit by >= 3x versus `fd` (the whole point of the API).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/analysis.hpp"
#include "core/context.hpp"
#include "core/site_models.hpp"
#include "model/frequencies.hpp"
#include "opt/transforms.hpp"
#include "sim/datasets.hpp"
#include "sim/evolver.hpp"
#include "sim/random_tree.hpp"
#include "sim/rng.hpp"

namespace slim {
namespace {

using core::GradientMode;
using model::BranchSiteParams;
using model::Hypothesis;

struct SimData {
  seqio::CodonAlignment codons;
  seqio::SitePatterns patterns;
  std::vector<double> pi;
  tree::Tree tree;
};

SimData makeData(int numSpecies, int numCodons, std::uint64_t seed,
                 const BranchSiteParams& truth = sim::defaultSimulationParams()) {
  sim::Rng rng(seed);
  auto tree = sim::yuleTree(numSpecies, rng);
  sim::pickForegroundBranch(tree, rng);
  const auto& gc = bio::GeneticCode::universal();
  const auto simPi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
  const auto simOut = sim::evolveBranchSite(gc, tree, truth, Hypothesis::H1,
                                            numCodons, simPi, rng);
  SimData d{seqio::encodeCodons(simOut.alignment, gc), {}, {}, tree};
  d.patterns = seqio::compressPatterns(d.codons);
  d.pi = model::estimateCodonFrequencies(d.codons,
                                         model::CodonFrequencyModel::F3x4);
  return d;
}

BranchSiteParams randomFeasibleParams(sim::Rng& rng) {
  BranchSiteParams p;
  p.kappa = rng.uniform(1.2, 4.0);
  p.omega0 = rng.uniform(0.05, 0.8);
  p.omega2 = rng.uniform(1.2, 6.0);
  p.p0 = rng.uniform(0.2, 0.5);
  p.p1 = rng.uniform(0.2, 0.4);
  return p;
}

// ---------- analytic vs central finite differences ----------

TEST(AnalyticGradient, MatchesCentralFiniteDifferences) {
  const auto d = makeData(7, 40, 7);
  sim::Rng rng(99);
  for (Hypothesis h : {Hypothesis::H0, Hypothesis::H1}) {
    lik::BranchSiteLikelihood eval(d.codons, d.patterns, d.pi, d.tree, h,
                                   lik::slimOptions());
    const int numBranches = eval.numBranches();
    for (int trial = 0; trial < 3; ++trial) {
      const BranchSiteParams p = randomFeasibleParams(rng);
      for (int k = 0; k < numBranches; ++k)
        eval.setBranchLength(k, rng.uniform(0.01, 0.6));

      std::vector<double> grad(numBranches);
      const double lnL = eval.logLikelihoodGradientBranches(p, grad);
      ASSERT_TRUE(std::isfinite(lnL));
      // The gradient call also returns the exact likelihood.
      EXPECT_EQ(lnL, eval.logLikelihood(p));

      for (int k = 0; k < numBranches; ++k) {
        const double t = eval.branchLength(k);
        const double step = 1e-6 * std::max(t, 1.0);
        eval.setBranchLength(k, t + step);
        const double fPlus = eval.logLikelihood(p);
        eval.setBranchLength(k, t - step);
        const double fMinus = eval.logLikelihood(p);
        eval.setBranchLength(k, t);
        const double fd = (fPlus - fMinus) / (2.0 * step);
        EXPECT_NEAR(grad[k], fd, 1e-6 * std::max(1.0, std::fabs(fd)))
            << model::hypothesisName(h) << " trial " << trial << " branch "
            << k;
      }
    }
  }
}

TEST(AnalyticGradient, ReuseOfLastEvaluationIsExact) {
  const auto d = makeData(6, 30, 11);
  lik::BranchSiteLikelihood eval(d.codons, d.patterns, d.pi, d.tree,
                                 Hypothesis::H1, lik::slimParallelOptions());
  BranchSiteParams p;
  const int numBranches = eval.numBranches();
  std::vector<double> fresh(numBranches), reused(numBranches);
  const double lnLFresh = eval.logLikelihoodGradientBranches(p, fresh);
  const double lnLEval = eval.logLikelihood(p);
  const double lnLReused = eval.gradientBranchesAtLastEvaluation(reused);
  EXPECT_EQ(lnLFresh, lnLEval);
  EXPECT_EQ(lnLFresh, lnLReused);
  EXPECT_EQ(fresh, reused);
  // The reuse path costs a sweep but no evaluation.
  EXPECT_EQ(eval.counters().gradientSweeps, 2);
  EXPECT_EQ(eval.counters().evaluations, 2);  // fresh gradient + logLikelihood
}

TEST(AnalyticGradient, BitIdenticalAcrossThreadCountsAndEngines) {
  const auto d = makeData(7, 40, 13);
  const BranchSiteParams p;
  std::vector<double> reference;
  double lnLReference = 0;
  for (int threads : {1, 2, 8}) {
    for (int blockSize : {0, 7, 64}) {
      auto options = lik::slimParallelOptions();
      options.numThreads = threads;
      options.blockSize = blockSize;
      lik::BranchSiteLikelihood eval(d.codons, d.patterns, d.pi, d.tree,
                                     Hypothesis::H1, options);
      std::vector<double> grad(eval.numBranches());
      const double lnL = eval.logLikelihoodGradientBranches(p, grad);
      if (reference.empty()) {
        reference = grad;
        lnLReference = lnL;
      } else {
        EXPECT_EQ(lnL, lnLReference) << threads << "x" << blockSize;
        EXPECT_EQ(grad, reference) << threads << "x" << blockSize;
      }
    }
  }
}

// ---------- end-to-end: the two modes agree, analytic is cheaper ----------

TEST(GradientModes, FitsAgreeAndAnalyticCutsEvaluations) {
#ifdef SLIM_SANITIZED
  // Four full fits run to tight convergence: ~20 s natively but ~20 min
  // under ASan/TSan, and entirely single-threaded (numThreads = 1), so
  // sanitized runs gain no coverage from it.  The threaded gradient paths
  // are covered by the AnalyticGradient suites above.
  GTEST_SKIP() << "single-threaded convergence marathon skipped under "
                  "sanitizers";
#endif
  // Enough branches that the per-branch FD axis dominates (the regime the
  // analytic gradient exists for): 9 species -> 16 branches, H1 dim 21.
  // Strong simulated selection keeps the H1 maximum in the interior and
  // well-conditioned, so independently-stopped optimizers can actually meet
  // at the 1e-8 bar (a near-boundary optimum has flat directions both modes
  // crawl along, stopping wherever their tolerance catches them).
  BranchSiteParams truth;
  truth.kappa = 2.0;
  truth.omega0 = 0.05;
  truth.omega2 = 8.0;
  truth.p0 = 0.35;
  truth.p1 = 0.35;
  const auto d = makeData(9, 30, 23, truth);

  core::FitOptions base;
  // Tight enough that every mode runs to the numerical optimum (not to an
  // early f-tolerance stop), so the three final lnL values are comparable
  // at 1e-8; central differences keep the FD mode accurate near it.
  base.bfgs.maxIterations = 400;
  base.bfgs.gradTolerance = 1e-9;
  base.bfgs.fTolerance = 1e-13;
  // Central differences at the ~eps^(1/3) step: the FD noise floor must sit
  // below the 1e-8 agreement bar, or the FD mode stalls short of it.
  base.bfgs.centralDifferences = true;
  base.bfgs.fdStep = 1e-5;
  base.tuning.cachePropagators = 1;
  base.tuning.numThreads = 1;

  for (Hypothesis h : {Hypothesis::H0, Hypothesis::H1}) {
    core::FitResult results[2];
    const GradientMode modes[2] = {GradientMode::FiniteDiff,
                                   GradientMode::Analytic};
    for (int i = 0; i < 2; ++i) {
      core::FitOptions opts = base;
      opts.tuning.gradient = modes[i];
      core::BranchSiteAnalysis analysis(d.codons, d.tree,
                                        core::EngineKind::Slim, opts);
      results[i] = analysis.fit(h);
      EXPECT_TRUE(results[i].converged)
          << model::hypothesisName(h) << " " << core::gradientModeName(modes[i]);
    }
    // analytic lands on the same maximum as fd.
    EXPECT_NEAR(results[0].lnL, results[1].lnL, 1e-8)
        << model::hypothesisName(h);

    if (h == Hypothesis::H1) {
      // The acceptance bar: analytic cuts likelihood evaluations per
      // converged H1 fit by >= 3x (branch derivatives come from sweeps).
      EXPECT_GE(results[0].counters.evaluations,
                3 * results[1].counters.evaluations)
          << "fd=" << results[0].counters.evaluations
          << " analytic=" << results[1].counters.evaluations;
      EXPECT_GT(results[1].counters.gradientSweeps, 0);
      EXPECT_EQ(results[0].counters.gradientSweeps, 0);
    }
  }
}

TEST(GradientModes, SiteModelFitsAgreeAcrossModes) {
  const auto d = makeData(6, 30, 29);
  core::SiteModelFitOptions base;
  base.bfgs.maxIterations = 80;

  core::SiteModelFitResult fd, analytic;
  {
    core::SiteModelFitOptions opts = base;
    opts.tuning.gradient = GradientMode::FiniteDiff;
    core::SiteModelAnalysis analysis(d.codons, d.tree, core::EngineKind::Slim,
                                     opts);
    fd = analysis.fit(core::SiteModel::M2a);
  }
  {
    core::SiteModelFitOptions opts = base;
    opts.tuning.gradient = GradientMode::Analytic;
    core::SiteModelAnalysis analysis(d.codons, d.tree, core::EngineKind::Slim,
                                     opts);
    analytic = analysis.fit(core::SiteModel::M2a);
  }
  EXPECT_NEAR(fd.lnL, analytic.lnL, 1e-6 * (1.0 + std::fabs(fd.lnL)));
  EXPECT_LT(analytic.gradientEvaluations, fd.gradientEvaluations);
}

// ---------- full analytic gradient: every model instance ----------

// One ModelSpec instance of the fit layer.
struct Instance {
  const char* name;
  model::ModelSpec spec;
  Hypothesis hypothesis;
  bool siteModel = false;  // M1a/M2a through SiteModelAnalysis
  core::SiteModel site = core::SiteModel::M1a;
};

std::vector<Instance> allInstances() {
  return {
      {"branch-site H0", model::ModelSpec::branchSite(), Hypothesis::H0},
      {"branch-site H1", model::ModelSpec::branchSite(), Hypothesis::H1},
      {"branch H0", model::ModelSpec::branch(2), Hypothesis::H0},
      {"branch H1", model::ModelSpec::branch(2), Hypothesis::H1},
      {"clade-c H0", model::ModelSpec::cladeC(2), Hypothesis::H0},
      {"clade-c H1", model::ModelSpec::cladeC(2), Hypothesis::H1},
      {"M1a", {}, Hypothesis::H1, true, core::SiteModel::M1a},
      {"M2a", {}, Hypothesis::H1, true, core::SiteModel::M2a},
  };
}

// A start point: interior, or near the boundary (omega0 -> 1, p1 -> 0).
model::BranchSiteParams startPoint(bool nearBoundary) {
  model::BranchSiteParams p;
  p.kappa = 2.5;
  p.omega0 = nearBoundary ? 0.995 : 0.3;
  p.omega2 = 3.0;
  p.p0 = nearBoundary ? 0.8 : 0.5;
  p.p1 = nearBoundary ? 1e-4 : 0.3;
  return p;
}

// The gradient (over the packed internal coordinates) that a branch-class
// fit computes at its start point, taken from the optimizer's first
// snapshot (the checkpoint sink).
struct StartGradient {
  std::vector<double> grad;
  long gradientEvaluations = 0;
  int analyticCoordinates = 0;
};

StartGradient startGradient(const SimData& d, const Instance& inst,
                            const model::BranchSiteParams& start,
                            GradientMode mode, int threads,
                            backend::ExpmAlgorithm expm =
                                backend::ExpmAlgorithm::Eigen) {
  opt::BfgsOptions bfgs;
  bfgs.maxIterations = 0;
  // The reference: central differences at a 1e-5 relative step.
  bfgs.centralDifferences = true;
  bfgs.fdStep = 1e-5;
  core::LikelihoodTuning tuning;
  tuning.gradient = mode;
  tuning.numThreads = threads;
  tuning.expm = expm;
  StartGradient out;
  const auto sink = [&out](const opt::BfgsState& st) {
    out.grad = st.grad;
    out.gradientEvaluations = st.gradientEvaluations;
    out.analyticCoordinates = st.analyticCoordinates;
  };
  core::FitOptions opts;
  opts.modelSpec = inst.spec;
  opts.bfgs = bfgs;
  opts.tuning = tuning;
  opts.initialParams = start;
  const auto context = core::AnalysisContext::create(
      d.codons, d.tree, core::EngineKind::Slim, opts);
  core::FitCheckpointHooks hooks;
  hooks.sink = sink;
  core::fitHypothesis(*context, inst.hypothesis, opts,
                      core::resolvedEngineOptions(core::EngineKind::Slim,
                                                  tuning),
                      nullptr, &hooks);
  return out;
}

// Gaps in some leaves' codons (missing data: all-ones leaf CPV rows), which
// the gradient sweep multiplies instead of gathering.
SimData withMissingData(SimData d) {
  for (std::size_t s = 0; s < d.codons.states.size(); ++s)
    for (std::size_t i = 0; i < d.codons.states[s].size(); ++i)
      if ((s + 3 * i) % 7 == 0) d.codons.states[s][i] = seqio::kMissingState;
  d.patterns = seqio::compressPatterns(d.codons);
  return d;
}

TEST(FullAnalyticGradient, MatchesCentralFiniteDifferencesForEveryInstance) {
  const auto d = withMissingData(makeData(6, 40, 31));
  for (const Instance& inst : allInstances()) {
    if (inst.siteModel) continue;  // SiteModelsMatchCentralFiniteDifferences
    for (bool nearBoundary : {false, true}) {
      const auto start = startPoint(nearBoundary);
      const auto fd =
          startGradient(d, inst, start, GradientMode::FiniteDiff, 1);
      const auto an = startGradient(d, inst, start, GradientMode::Analytic, 1);
      ASSERT_EQ(fd.grad.size(), an.grad.size()) << inst.name;
      ASSERT_FALSE(an.grad.empty()) << inst.name;
      EXPECT_EQ(an.analyticCoordinates, static_cast<int>(an.grad.size()))
          << inst.name;
      EXPECT_EQ(an.gradientEvaluations, 0) << inst.name;
      for (std::size_t i = 0; i < an.grad.size(); ++i)
        EXPECT_NEAR(an.grad[i], fd.grad[i],
                    1e-6 * std::max(1.0, std::fabs(fd.grad[i])))
            << inst.name << (nearBoundary ? " near boundary" : " interior")
            << " coordinate " << i;
    }
  }
}

// M1a/M2a at the likelihood layer, in the model's own parameters (kappa,
// omega0, omega2, p0, p1 and the branch lengths): the site-model packing's
// chain rule is the transform-Jacobian product the branch-class fits above
// already check in packed coordinates.
TEST(FullAnalyticGradient, SiteModelsMatchCentralFiniteDifferences) {
  const auto d = withMissingData(makeData(6, 40, 53));
  const auto& gc = *d.codons.code;
  for (bool m2a : {false, true}) {
    for (bool nearBoundary : {false, true}) {
      const auto start = startPoint(nearBoundary);
      model::SiteModelParams p;
      p.kappa = start.kappa;
      p.omega0 = start.omega0;
      p.omega2 = start.omega2;
      p.p0 = start.p0;
      p.p1 = m2a ? start.p1 : 1.0 - start.p0;
      const auto build = [&](const model::SiteModelParams& q) {
        return m2a ? model::buildM2aSpec(gc, d.pi, q)
                   : model::buildM1aSpec(gc, d.pi, q);
      };
      lik::BranchSiteLikelihood eval(d.codons, d.patterns, d.pi, d.tree,
                                     Hypothesis::H1,
                                     lik::slimParallelOptions());
      lik::MixtureGradient g;
      eval.logLikelihoodGradient(build(p), g);

      // Central differences at a 1e-5 relative step of one parameter.
      const auto central = [&](double& v, const auto& lnL) {
        const double x0 = v;
        const double h = 1e-5 * std::max(1.0, std::fabs(x0));
        v = x0 + h;
        const double up = lnL();
        v = x0 - h;
        const double down = lnL();
        v = x0;
        return (up - down) / (2 * h);
      };
      const auto lnLAt = [&] { return eval.logLikelihood(build(p)); };
      const std::string where = std::string(m2a ? "M2a" : "M1a") +
                                (nearBoundary ? " near boundary" : " interior");
      const auto expectNear = [&](double analytic, double fd,
                                  const char* what) {
        EXPECT_NEAR(analytic, fd, 1e-6 * std::max(1.0, std::fabs(fd)))
            << where << " " << what;
      };
      expectNear(g.kappa, central(p.kappa, lnLAt), "kappa");
      expectNear(g.omega[0], central(p.omega0, lnLAt), "omega0");
      expectNear(g.proportion[0], central(p.p0, lnLAt), "p0");
      if (m2a) {
        expectNear(g.omega[2], central(p.omega2, lnLAt), "omega2");
        expectNear(g.proportion[1], central(p.p1, lnLAt), "p1");
      } else {
        EXPECT_EQ(g.proportion[1], 0.0) << where;
      }
      const auto spec = build(p);
      for (int k = 0; k < eval.numBranches(); ++k) {
        double t = eval.branchLength(k);
        const double fd = central(t, [&] {
          const double saved = eval.branchLength(k);
          eval.setBranchLength(k, t);
          const double lnL = eval.logLikelihood(spec);
          eval.setBranchLength(k, saved);
          return lnL;
        });
        expectNear(g.branch[k], fd, "branch");
      }
    }
  }
}

// Fits can drive p0 and p1 to 0 together (seen at p0 + p1 ~ 1e-156 with a
// runaway omega2): d lnL / d(p0, p1) then grows like 1/(p0 + p1), and the
// proportion gradient must stay finite and, through the softmax chain rule,
// match central differences in the packed coordinates.
TEST(FullAnalyticGradient, ProportionsStayFiniteAsP0AndP1VanishTogether) {
  const auto d = makeData(6, 40, 59);
  const auto& gc = *d.codons.code;
  BranchSiteParams p = startPoint(false);
  p.omega2 = 50.0;
  lik::BranchSiteLikelihood eval(d.codons, d.patterns, d.pi, d.tree,
                                 Hypothesis::H1, lik::slimParallelOptions());
  for (double s : {1e-20, 1e-157, 1e-200}) {
    p.p0 = 0.6 * s;
    p.p1 = 0.4 * s;
    lik::MixtureGradient g;
    eval.logLikelihoodGradient(
        model::buildModelASpec(gc, d.pi, p, Hypothesis::H1), g);
    ASSERT_TRUE(std::isfinite(g.proportion[0]) &&
                std::isfinite(g.proportion[1]))
        << "p0 + p1 = " << s;
    // (simplex2ToInternal would clamp p0 and p1 to 1e-15.)
    const double u = std::log(p.p0 / (1.0 - s)), v = std::log(p.p1 / (1.0 - s));
    const auto [du, dv] =
        opt::simplex2Gradient(u, v, g.proportion[0], g.proportion[1]);
    const auto lnLAt = [&](double uu, double vv) {
      BranchSiteParams q = p;
      std::tie(q.p0, q.p1) = opt::simplex2ToExternal(uu, vv);
      return eval.logLikelihood(
          model::buildModelASpec(gc, d.pi, q, Hypothesis::H1));
    };
    // An absolute step: |u| and |v| reach 460 here.
    const double h = 1e-5;
    const double fdU = (lnLAt(u + h, v) - lnLAt(u - h, v)) / (2 * h);
    const double fdV = (lnLAt(u, v + h) - lnLAt(u, v - h)) / (2 * h);
    EXPECT_NEAR(du, fdU, 1e-6 * std::max(1.0, std::fabs(fdU))) << s;
    EXPECT_NEAR(dv, fdV, 1e-6 * std::max(1.0, std::fabs(fdV))) << s;
  }
}

TEST(FullAnalyticGradient, AdaptiveExpmFiniteDifferencesKappaAndOmegaOnly) {
  const auto d = makeData(6, 40, 37);
  const Instance inst{"branch-site H1", model::ModelSpec::branchSite(),
                      Hypothesis::H1};
  const auto start = startPoint(false);
  const auto fd = startGradient(d, inst, start, GradientMode::FiniteDiff, 1,
                                backend::ExpmAlgorithm::Adaptive);
  const auto an = startGradient(d, inst, start, GradientMode::Analytic, 1,
                                backend::ExpmAlgorithm::Adaptive);
  ASSERT_EQ(fd.grad.size(), an.grad.size());
  // kappa, omega0, omega2 finite-differenced (central: two probes each);
  // everything else analytic.
  EXPECT_EQ(an.gradientEvaluations, 6);
  EXPECT_EQ(an.analyticCoordinates, static_cast<int>(an.grad.size()) - 3);
  for (std::size_t i = 0; i < an.grad.size(); ++i)
    EXPECT_NEAR(an.grad[i], fd.grad[i],
                1e-6 * std::max(1.0, std::fabs(fd.grad[i])))
        << "coordinate " << i;
}

TEST(FullAnalyticGradient, BitIdenticalAcrossThreadCountsAndBlockSizes) {
  const auto d = withMissingData(makeData(7, 40, 41));
  const auto& gc = *d.codons.code;
  const std::vector<double> divergent = {2.5, 0.7};
  const std::vector<model::MixtureSpec> specs = {
      model::buildModelASpec(gc, d.pi, startPoint(false), Hypothesis::H1),
      model::buildCladeCSpec(gc, d.pi, 2.0, 0.2, 0.4, 0.3, divergent)};
  for (const auto& spec : specs) {
    lik::MixtureGradient reference;
    double lnLReference = 0;
    bool first = true;
    for (int threads : {1, 2, 4}) {
      for (int blockSize : {0, 7}) {
        auto options = lik::slimParallelOptions();
        options.numThreads = threads;
        options.blockSize = blockSize;
        lik::BranchSiteLikelihood eval(d.codons, d.patterns, d.pi, d.tree,
                                       Hypothesis::H1, options);
        lik::MixtureGradient g;
        const double lnL = eval.logLikelihoodGradient(spec, g);
        ASSERT_TRUE(std::isfinite(g.kappa));
        if (first) {
          reference = g;
          lnLReference = lnL;
          first = false;
          continue;
        }
        EXPECT_EQ(lnL, lnLReference) << threads << "x" << blockSize;
        EXPECT_EQ(g.branch, reference.branch) << threads << "x" << blockSize;
        EXPECT_EQ(g.kappa, reference.kappa) << threads << "x" << blockSize;
        EXPECT_EQ(g.omega, reference.omega) << threads << "x" << blockSize;
        EXPECT_EQ(g.proportion, reference.proportion)
            << threads << "x" << blockSize;
      }
    }
  }
}

TEST(FullAnalyticGradient, ReuseMatchesFreshAndBranchOnlySweep) {
  const auto d = makeData(6, 30, 43);
  lik::BranchSiteLikelihood eval(d.codons, d.patterns, d.pi, d.tree,
                                 Hypothesis::H1, lik::slimParallelOptions());
  const auto spec = model::buildModelASpec(*d.codons.code, d.pi,
                                           startPoint(false), Hypothesis::H1);
  lik::MixtureGradient fresh, reused;
  const double lnL = eval.logLikelihoodGradient(spec, fresh);
  EXPECT_EQ(eval.gradientAtLastEvaluation(reused), lnL);
  EXPECT_EQ(fresh.branch, reused.branch);
  EXPECT_EQ(fresh.kappa, reused.kappa);
  EXPECT_EQ(fresh.omega, reused.omega);
  EXPECT_EQ(fresh.proportion, reused.proportion);
  // The branch block is the branch-only sweep's, bit for bit; the fixed
  // omega = 1 slot carries no derivative.
  std::vector<double> branches(eval.numBranches());
  eval.gradientBranchesAtLastEvaluation(branches);
  EXPECT_EQ(fresh.branch, branches);
  EXPECT_EQ(fresh.omega[model::kOmegaNeutral], 0.0);
}

TEST(FullAnalyticGradient, EigenPathFitsSpendNoFiniteDifferenceProbe) {
  const auto d = makeData(6, 30, 47);
  for (const Instance& inst : allInstances()) {
    core::LikelihoodTuning tuning;
    tuning.gradient = GradientMode::Analytic;
    tuning.numThreads = 2;
    opt::BfgsOptions bfgs;
    bfgs.maxIterations = 6;
    long gradientEvaluations = -1;
    int iterations = 0;
    if (inst.siteModel) {
      core::SiteModelFitOptions opts;
      opts.bfgs = bfgs;
      opts.tuning = tuning;
      core::SiteModelAnalysis analysis(d.codons, d.tree,
                                       core::EngineKind::Slim, opts);
      const auto r = analysis.fit(inst.site);
      gradientEvaluations = r.gradientEvaluations;
      iterations = r.iterations;
    } else {
      core::FitOptions opts;
      opts.modelSpec = inst.spec;
      opts.bfgs = bfgs;
      opts.tuning = tuning;
      core::BranchSiteAnalysis analysis(d.codons, d.tree,
                                        core::EngineKind::Slim, opts);
      const auto r = analysis.fit(inst.hypothesis);
      gradientEvaluations = r.gradientEvaluations;
      iterations = r.iterations;
      EXPECT_GT(r.counters.gradientSweeps, 0) << inst.name;
    }
    EXPECT_GT(iterations, 0) << inst.name;
    EXPECT_EQ(gradientEvaluations, 0) << inst.name;
  }
}

}  // namespace
}  // namespace slim
