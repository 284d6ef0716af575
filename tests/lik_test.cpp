// Tests for the branch-site likelihood engine.
//
// The decisive test validates the full pruning + mixture machinery against a
// brute-force reference implemented here from scratch: transition matrices
// via the Pade oracle (no eigendecomposition), pruning via a plain recursive
// definition (no pattern bundling, no scaling, no caching).  Every engine
// configuration (2 propagation strategies x 2 kernel flavors x 2
// reconstruction paths) must agree with it — the in-vitro version of the
// paper's accuracy experiment (Sec. IV-1).

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <string>

#include "expm/pade.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "model/codon_model.hpp"
#include "model/frequencies.hpp"
#include "model/site_mixture.hpp"
#include "sim/datasets.hpp"
#include "test_util.hpp"

namespace slim::lik {
namespace {

using linalg::Flavor;
using linalg::Matrix;
using model::BranchSiteParams;
using model::Hypothesis;

const bio::GeneticCode& gc() { return bio::GeneticCode::universal(); }

struct Fixture {
  seqio::CodonAlignment alignment;
  seqio::SitePatterns patterns;
  std::vector<double> pi;
  tree::Tree tree;
};

Fixture makeFixture() {
  Fixture f;
  seqio::Alignment aln;
  // 6 codon sites incl. a repeated column, a gap and an ambiguous codon.
  aln.addSequence("a", "ATGAAATTTATGCCC---");
  aln.addSequence("b", "ATGAAGTTCATGCCCGGA");
  aln.addSequence("c", "ATGAAATTAATGCCAGGN");
  aln.addSequence("d", "ATGAAATTTATGCCTGGA");
  f.alignment = seqio::encodeCodons(aln, gc());
  f.patterns = seqio::compressPatterns(f.alignment);
  f.pi = testutil::randomFrequencies(gc().numSense(), 77);
  f.tree = tree::Tree::parseNewick(
      "((a:0.11,b:0.23) #1:0.17,(c:0.31,d:0.13):0.07);");
  return f;
}

BranchSiteParams testParams() {
  BranchSiteParams p;
  p.kappa = 2.3;
  p.omega0 = 0.15;
  p.omega2 = 2.1;
  p.p0 = 0.55;
  p.p1 = 0.30;
  return p;
}

// Brute-force reference: Pade transition matrices + plain recursion.
double bruteForceLnL(const Fixture& f, const BranchSiteParams& params,
                     Hypothesis hyp) {
  const int n = gc().numSense();
  const auto qset = model::buildBranchSiteQSet(gc(), f.pi, params, hyp);
  const auto prop = model::siteClassProportions(params.p0, params.p1);

  // P(t) per (branch node, omega class) via the Pade oracle.
  std::vector<std::array<Matrix, model::kNumOmegaClasses>> pMat(
      f.tree.numNodes());
  for (int id : f.tree.branches()) {
    for (int k = 0; k < model::kNumOmegaClasses; ++k) {
      Matrix q(n, n);
      model::buildRateMatrix(qset.scaledS[k], f.pi, q);
      for (std::size_t x = 0; x < q.size(); ++x)
        q.data()[x] *= f.tree.branchLength(id);
      pMat[id][k] = expm::expmPade(q);
    }
  }

  // Leaf row lookup by name.
  auto leafRow = [&](int node) {
    for (std::size_t s = 0; s < f.alignment.names.size(); ++s)
      if (f.alignment.names[s] == f.tree.node(node).label)
        return static_cast<int>(s);
    ADD_FAILURE() << "leaf not found";
    return -1;
  };

  double lnL = 0.0;
  for (std::size_t h = 0; h < f.patterns.numPatterns(); ++h) {
    double fh = 0.0;
    for (int m = 0; m < model::kNumSiteClasses; ++m) {
      std::function<std::vector<double>(int)> partial =
          [&](int node) -> std::vector<double> {
        if (f.tree.node(node).isLeaf()) {
          std::vector<double> v(n, 0.0);
          const int state = f.patterns.patterns[h][leafRow(node)];
          if (state == seqio::kMissingState)
            v.assign(n, 1.0);
          else
            v[state] = 1.0;
          return v;
        }
        std::vector<double> v(n, 1.0);
        for (int child : f.tree.node(node).children) {
          const auto w = partial(child);
          const int om =
              model::omegaIndexFor(m, f.tree.node(child).mark != 0);
          const Matrix& p = pMat[child][om];
          for (int i = 0; i < n; ++i) {
            double s = 0.0;
            for (int j = 0; j < n; ++j) s += p(i, j) * w[j];
            v[i] *= s;
          }
        }
        return v;
      };
      const auto rootV = partial(f.tree.root());
      double fmh = 0.0;
      for (int i = 0; i < n; ++i) fmh += f.pi[i] * rootV[i];
      fh += prop[m] * fmh;
    }
    lnL += f.patterns.weights[h] * std::log(fh);
  }
  return lnL;
}

// ---------- agreement with the brute-force reference ----------

struct ConfigName {
  template <class P>
  std::string operator()(const ::testing::TestParamInfo<P>& info) const {
    const auto& [strategy, flavor, path] = info.param;
    std::string s = propagationStrategyName(strategy);
    for (auto& c : s)
      if (c == '-') c = '_';
    return s + std::string("_") + linalg::flavorName(flavor) +
           (path == expm::ReconstructionPath::Gemm ? "_gemm" : "_syrk");
  }
};

class EngineConfig
    : public ::testing::TestWithParam<std::tuple<
          PropagationStrategy, Flavor, expm::ReconstructionPath>> {};

TEST_P(EngineConfig, MatchesBruteForceH1) {
  const auto [strategy, flavor, path] = GetParam();
  const Fixture f = makeFixture();
  LikelihoodOptions opts;
  opts.propagation = strategy;
  opts.flavor = flavor;
  opts.reconstruction = path;
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, opts);
  const double got = eval.logLikelihood(testParams());
  const double want = bruteForceLnL(f, testParams(), Hypothesis::H1);
  EXPECT_NEAR(got, want, 1e-8 * std::fabs(want));
}

TEST_P(EngineConfig, MatchesBruteForceH0) {
  const auto [strategy, flavor, path] = GetParam();
  const Fixture f = makeFixture();
  LikelihoodOptions opts;
  opts.propagation = strategy;
  opts.flavor = flavor;
  opts.reconstruction = path;
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H0, opts);
  const double got = eval.logLikelihood(testParams());
  const double want = bruteForceLnL(f, testParams(), Hypothesis::H0);
  EXPECT_NEAR(got, want, 1e-8 * std::fabs(want));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, EngineConfig,
    ::testing::Combine(::testing::Values(PropagationStrategy::PerSiteGemv,
                                         PropagationStrategy::BundledGemm),
                       ::testing::Values(Flavor::Naive, Flavor::Opt),
                       ::testing::Values(expm::ReconstructionPath::Gemm,
                                         expm::ReconstructionPath::Syrk)),
    ConfigName{});

// ---------- the paper's accuracy metric between the two presets ----------

TEST(Accuracy, BaselineAndSlimAgreeToPaperPrecision) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood baseline(f.alignment, f.patterns, f.pi, f.tree,
                                Hypothesis::H1, codemlBaselineOptions());
  BranchSiteLikelihood slim(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, slimOptions());
  const double l0 = baseline.logLikelihood(testParams());
  const double l1 = slim.logLikelihood(testParams());
  // Paper Sec. IV-1: relative differences D between 0 and 5.5e-8.
  const double d = std::fabs(l0 - l1) / std::fabs(l0);
  EXPECT_LT(d, 1e-9);
}

// ---------- numerical scaling ----------

TEST(Scaling, AggressiveThresholdLeavesLnLUnchanged) {
  const Fixture f = makeFixture();
  LikelihoodOptions normal = slimOptions();
  LikelihoodOptions aggressive = slimOptions();
  aggressive.scalingThreshold = 0.9;  // force rescaling at every node
  BranchSiteLikelihood a(f.alignment, f.patterns, f.pi, f.tree,
                         Hypothesis::H1, normal);
  BranchSiteLikelihood b(f.alignment, f.patterns, f.pi, f.tree,
                         Hypothesis::H1, aggressive);
  const double la = a.logLikelihood(testParams());
  const double lb = b.logLikelihood(testParams());
  EXPECT_NEAR(la, lb, 1e-9 * std::fabs(la));
}

TEST(Scaling, DeepChainTreeDoesNotUnderflow) {
  // A 60-taxon caterpillar: unscaled per-site likelihoods underflow badly.
  std::string s = "(L0:0.2,L1:0.2)";
  seqio::Alignment aln;
  std::string codon = "ATG";
  aln.addSequence("L0", codon);
  aln.addSequence("L1", codon);
  for (int i = 2; i < 60; ++i) {
    s = "(" + s + ":0.2,L" + std::to_string(i) + ":0.2)";
    aln.addSequence("L" + std::to_string(i), i % 3 == 0 ? "ATA" : "ATG");
  }
  auto t = tree::Tree::parseNewick(s + " ;");
  t.setForegroundBranch(t.findLeaf("L5"));
  const auto ca = seqio::encodeCodons(aln, gc());
  const auto sp = seqio::compressPatterns(ca);
  const auto pi = testutil::randomFrequencies(gc().numSense(), 3);
  BranchSiteLikelihood eval(ca, sp, pi, t, Hypothesis::H1, slimOptions());
  const double lnL = eval.logLikelihood(testParams());
  EXPECT_TRUE(std::isfinite(lnL));
  EXPECT_LT(lnL, 0.0);
}

// ---------- structural behaviour ----------

TEST(BranchSiteLikelihoodTest, AllMissingColumnContributesZero) {
  seqio::Alignment aln;
  aln.addSequence("a", "ATG---");
  aln.addSequence("b", "ATG---");
  aln.addSequence("c", "ATG---");
  const auto ca = seqio::encodeCodons(aln, gc());
  const auto sp = seqio::compressPatterns(ca);
  const auto pi = testutil::randomFrequencies(gc().numSense(), 5);
  auto t = tree::Tree::parseNewick("(a:0.1,b:0.1,c:0.1);");
  t.setForegroundBranch(t.findLeaf("a"));

  BranchSiteLikelihood eval(ca, sp, pi, t, Hypothesis::H1, slimOptions());
  const double both = eval.logLikelihood(testParams());

  // Same data without the all-gap column.
  seqio::Alignment aln2;
  aln2.addSequence("a", "ATG");
  aln2.addSequence("b", "ATG");
  aln2.addSequence("c", "ATG");
  const auto ca2 = seqio::encodeCodons(aln2, gc());
  const auto sp2 = seqio::compressPatterns(ca2);
  BranchSiteLikelihood eval2(ca2, sp2, pi, t, Hypothesis::H1, slimOptions());
  EXPECT_NEAR(both, eval2.logLikelihood(testParams()), 1e-10);
}

TEST(BranchSiteLikelihoodTest, BranchLengthChangesLikelihood) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, slimOptions());
  const double l1 = eval.logLikelihood(testParams());
  eval.setBranchLength(0, eval.branchLength(0) + 0.4);
  const double l2 = eval.logLikelihood(testParams());
  EXPECT_NE(l1, l2);
}

TEST(BranchSiteLikelihoodTest, EigenCacheCountsDistinctOmegas) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood h1(f.alignment, f.patterns, f.pi, f.tree,
                          Hypothesis::H1, slimOptions());
  h1.logLikelihood(testParams());
  EXPECT_EQ(h1.counters().eigenDecompositions, 3);  // omega0, 1, omega2

  BranchSiteLikelihood h0(f.alignment, f.patterns, f.pi, f.tree,
                          Hypothesis::H0, slimOptions());
  h0.logLikelihood(testParams());
  EXPECT_EQ(h0.counters().eigenDecompositions, 2);  // omega2 == omega1 == 1
}

TEST(BranchSiteLikelihoodTest, PropagatorBuildCountsPerEvaluation) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, slimOptions());
  eval.logLikelihood(testParams());
  // 6 branches; 5 background need {omega0, omega1}, the foreground needs
  // {omega0, omega1, omega2}: 13 total.
  EXPECT_EQ(eval.counters().propagatorBuilds, 13);
}

TEST(BranchSiteLikelihoodTest, RequiresMarkForBranchHeterogeneousMixture) {
  // Construction no longer demands a mark (branch-homogeneous mixtures —
  // site models — run on bare trees); evaluating a branch-heterogeneous
  // mixture like model A on an unmarked tree is the error.
  const Fixture f = makeFixture();
  auto bare = tree::Tree::parseNewick(
      "((a:0.11,b:0.23):0.17,(c:0.31,d:0.13):0.07);");
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, bare,
                            Hypothesis::H1, slimOptions());
  EXPECT_THROW(eval.logLikelihood(testParams()), std::invalid_argument);
}

TEST(BranchSiteLikelihoodTest, RejectsLeafMissingFromAlignment) {
  const Fixture f = makeFixture();
  auto t = tree::Tree::parseNewick(
      "((a:0.1,zz:0.2) #1:0.1,(c:0.3,d:0.1):0.05);");
  EXPECT_THROW(BranchSiteLikelihood(f.alignment, f.patterns, f.pi, t,
                                    Hypothesis::H1, slimOptions()),
               std::invalid_argument);
}

// ---------- posteriors ----------

TEST(Posteriors, SumToOneAcrossClasses) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, slimOptions());
  const auto post = eval.siteClassPosteriors(testParams());
  for (std::size_t h = 0; h < f.patterns.numPatterns(); ++h) {
    double total = 0;
    for (int m = 0; m < model::kNumSiteClasses; ++m) {
      EXPECT_GE(post.post[m][h], 0.0);
      total += post.post[m][h];
    }
    EXPECT_NEAR(total, 1.0, 1e-10);
    EXPECT_NEAR(post.positiveSelection[h],
                post.post[2][h] + post.post[3][h], 1e-12);
  }
}

TEST(Posteriors, ExpandedToSites) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, slimOptions());
  const auto post = eval.siteClassPosteriors(testParams());
  ASSERT_EQ(post.positiveSelectionBySite.size(), f.alignment.numSites());
  // Sites sharing a pattern share the posterior.
  for (std::size_t i = 0; i < f.patterns.siteToPattern.size(); ++i)
    EXPECT_DOUBLE_EQ(post.positiveSelectionBySite[i],
                     post.positiveSelection[f.patterns.siteToPattern[i]]);
}

// ---------- retained-path bit pins ----------

// lnL and the full mixture gradient of the two engines the paper compares,
// pinned bit for bit on one simulated gene: the codeml preset (naive loops,
// Eq. 9, per-site gemv) and the slim preset (Eq. 10 syrk, bundled BLAS-3) at
// backend = reference.  Refactors of either path must keep these bits; the
// literals assume the scalar loops are not contracted into FMAs.
struct PinnedGradient {
  double lnL;
  double kappa;
  std::array<double, 3> omega;
  std::array<double, 2> proportion;
  std::array<double, 8> branch;
};

TEST(RetainedPaths, LnlAndGradientBitsPinned) {
#ifdef __FMA__
  GTEST_SKIP() << "FMA contraction changes the scalar loops' rounding";
#endif
  const sim::Dataset ds = sim::makeSweepDataset(5, /*seed=*/311, 40);
  const auto ca = seqio::encodeCodons(ds.alignment, gc());
  const auto sp = seqio::compressPatterns(ca);
  const auto pi =
      model::estimateCodonFrequencies(ca, model::CodonFrequencyModel::F3x4);
  struct Case {
    const char* name;
    LikelihoodOptions options;
    Hypothesis hypothesis;
    PinnedGradient want;
  };
  const Case cases[] = {
      {"codeml H0", codemlBaselineOptions(), Hypothesis::H0,
       {-0x1.a08261d7122c8p+8, -0x1.151643e008b44p+0,
        {0x1.bdf46bc4895b1p+3, 0x0p+0, 0x0p+0},
        {-0x1.153a0b7d5a516p+3, 0x1.95a9c1926e5cep+2},
        {0x1.76027dd03e815p+2, 0x1.86cc353b2ae02p+3, -0x1.363f099811b8bp+2,
         -0x1.717bd5ffe0834p+3, 0x1.6d2dbc302e77bp+1, 0x1.031823e73f4b7p+3,
         -0x1.222074cafc577p+2, 0x1.54812db85b933p+0}}},
      {"codeml H1", codemlBaselineOptions(), Hypothesis::H1,
       {-0x1.9fdec644f54b5p+8, -0x1.06add2876e628p+0,
        {0x1.9e56b3baf5d1cp+3, 0x0p+0, 0x1.7ead4016adbebp-2},
        {-0x1.477447af4f5aep+3, 0x1.acc02968970dp+1},
        {0x1.8cb6455ac3ed3p+2, 0x1.929d15fe873b7p+3, -0x1.28f1d8bf20f36p+2,
         -0x1.6661c150557c2p+3, 0x1.3cc9405c98f68p-1, 0x1.0a6fbe740e015p+3,
         -0x1.11a79d5dd2fd6p+2, -0x1.5c86de6073fbfp+0}}},
      {"slim H0", slimOptions(), Hypothesis::H0,
       {-0x1.a08261d7122cap+8, -0x1.151643e008baap+0,
        {0x1.bdf46bc4895d1p+3, 0x0p+0, 0x0p+0},
        {-0x1.153a0b7d5a572p+3, 0x1.95a9c1926e5ep+2},
        {0x1.76027dd03e766p+2, 0x1.86cc353b2ae06p+3, -0x1.363f099811b92p+2,
         -0x1.717bd5ffe0844p+3, 0x1.6d2dbc302e996p+1, 0x1.031823e73f4ccp+3,
         -0x1.222074cafc4f9p+2, 0x1.54812db85bc3dp+0}}},
      {"slim H1", slimOptions(), Hypothesis::H1,
       {-0x1.9fdec644f54b8p+8, -0x1.06add2876e68fp+0,
        {0x1.9e56b3baf5d22p+3, 0x0p+0, 0x1.7ead4016adcd9p-2},
        {-0x1.477447af4f5f4p+3, 0x1.acc029689703cp+1},
        {0x1.8cb6455ac3e37p+2, 0x1.929d15fe873c6p+3, -0x1.28f1d8bf20f2fp+2,
         -0x1.6661c150557c4p+3, 0x1.3cc9405c99538p-1, 0x1.0a6fbe740e051p+3,
         -0x1.11a79d5dd2f77p+2, -0x1.5c86de6073e67p+0}}},
  };
  for (const Case& c : cases) {
    for (const int threads : {1, 2}) {
      SCOPED_TRACE(std::string(c.name) + ", threads " +
                   std::to_string(threads));
      LikelihoodOptions options = c.options;
      options.backend = backend::BackendMode::Reference;
      options.numThreads = threads;
      options.blockSize = 16;
      BranchSiteLikelihood eval(ca, sp, pi, ds.tree, c.hypothesis, options);
      BranchSiteParams params = testParams();
      if (c.hypothesis == Hypothesis::H0) params.omega2 = 1.0;
      MixtureGradient g;
      const double lnL = eval.logLikelihoodGradient(
          model::buildModelASpec(gc(), pi, params, c.hypothesis), g);
      EXPECT_EQ(lnL, c.want.lnL);
      EXPECT_EQ(g.kappa, c.want.kappa);
      ASSERT_EQ(g.omega.size(), c.want.omega.size());
      for (std::size_t k = 0; k < g.omega.size(); ++k)
        EXPECT_EQ(g.omega[k], c.want.omega[k]) << "omega slot " << k;
      EXPECT_EQ(g.proportion[0], c.want.proportion[0]);
      EXPECT_EQ(g.proportion[1], c.want.proportion[1]);
      ASSERT_EQ(g.branch.size(), c.want.branch.size());
      for (std::size_t k = 0; k < g.branch.size(); ++k)
        EXPECT_EQ(g.branch[k], c.want.branch[k]) << "branch " << k;
    }
  }
}

}  // namespace
}  // namespace slim::lik
