// Tests for the incomplete gamma functions, the chi-square distribution and
// the likelihood-ratio test.  Reference values from standard tables.

#include <gtest/gtest.h>

#include <cmath>

#include "stat/lrt.hpp"
#include "stat/special_functions.hpp"

namespace slim::stat {
namespace {

// ---------- incomplete gamma ----------

TEST(Gamma, PAndQComplementary) {
  for (double a : {0.5, 1.0, 2.5, 10.0})
    for (double x : {0.1, 1.0, 3.0, 20.0})
      EXPECT_NEAR(regularizedGammaP(a, x) + regularizedGammaQ(a, x), 1.0,
                  1e-12)
          << "a=" << a << " x=" << x;
}

TEST(Gamma, KnownValues) {
  // P(1, x) = 1 - e^{-x} (exponential CDF).
  for (double x : {0.5, 1.0, 2.0, 5.0})
    EXPECT_NEAR(regularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-12);
  // P(0.5, x) = erf(sqrt(x)).
  for (double x : {0.25, 1.0, 4.0})
    EXPECT_NEAR(regularizedGammaP(0.5, x), std::erf(std::sqrt(x)), 1e-12);
}

TEST(Gamma, BoundaryBehaviour) {
  EXPECT_DOUBLE_EQ(regularizedGammaP(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularizedGammaQ(2.0, 0.0), 1.0);
  EXPECT_NEAR(regularizedGammaP(2.0, 1e8), 1.0, 1e-12);
  EXPECT_THROW(regularizedGammaP(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(regularizedGammaP(1.0, -1.0), std::invalid_argument);
}

TEST(Gamma, MonotoneInX) {
  double prev = -1;
  for (double x = 0.0; x <= 10.0; x += 0.5) {
    const double p = regularizedGammaP(3.0, x);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

// ---------- chi-square ----------

TEST(Chi2, CriticalValuesDf1) {
  // Classic table values for df = 1.
  EXPECT_NEAR(chi2Cdf(3.841, 1.0), 0.95, 1e-3);
  EXPECT_NEAR(chi2Cdf(6.635, 1.0), 0.99, 1e-3);
  EXPECT_NEAR(chi2Cdf(2.706, 1.0), 0.90, 1e-3);
}

TEST(Chi2, CriticalValuesOtherDf) {
  EXPECT_NEAR(chi2Cdf(5.991, 2.0), 0.95, 1e-3);
  EXPECT_NEAR(chi2Cdf(7.815, 3.0), 0.95, 1e-3);
  EXPECT_NEAR(chi2Cdf(18.307, 10.0), 0.95, 1e-3);
}

TEST(Chi2, SfComplementsCdf) {
  for (double x : {0.5, 2.0, 6.0})
    EXPECT_NEAR(chi2Cdf(x, 1.0) + chi2Sf(x, 1.0), 1.0, 1e-12);
}

TEST(Chi2, Df2IsExponential) {
  // chi2 with 2 df is Exp(1/2): CDF = 1 - e^{-x/2}.
  for (double x : {0.5, 1.0, 4.0})
    EXPECT_NEAR(chi2Cdf(x, 2.0), 1.0 - std::exp(-0.5 * x), 1e-12);
}

TEST(Chi2, QuantileInvertsCdf) {
  for (double p : {0.05, 0.5, 0.9, 0.95, 0.99})
    for (double k : {1.0, 2.0, 5.0}) {
      const double q = chi2Quantile(p, k);
      EXPECT_NEAR(chi2Cdf(q, k), p, 1e-9) << "p=" << p << " k=" << k;
    }
  EXPECT_DOUBLE_EQ(chi2Quantile(0.0, 1.0), 0.0);
}

TEST(Chi2, NegativeArguments) {
  EXPECT_DOUBLE_EQ(chi2Cdf(-1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(chi2Sf(-1.0, 1.0), 1.0);
}

// ---------- LRT ----------

TEST(Lrt, StatisticAndPValues) {
  // 2*dlnL = 3.841 is exactly the 5% critical value for df 1.
  const auto r = likelihoodRatioTest(-1000.0, -1000.0 + 3.841 / 2.0);
  EXPECT_NEAR(r.statistic, 3.841, 1e-12);
  EXPECT_NEAR(r.pChi2, 0.05, 1e-3);
  EXPECT_NEAR(r.pMixture, 0.025, 1e-3);
  EXPECT_FALSE(r.significantAt(0.01));
}

TEST(Lrt, NegativeImprovementClampedToZero) {
  // lnL1 slightly below lnL0 (optimizer noise): statistic 0, p-value 1.
  const auto r = likelihoodRatioTest(-500.0, -500.1);
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);
  EXPECT_DOUBLE_EQ(r.pChi2, 1.0);
  EXPECT_DOUBLE_EQ(r.pMixture, 1.0);
}

TEST(Lrt, NestedShortfallIsReportedNotHidden) {
  // The clamp keeps the p-values at the null, and the shortfall says by how
  // much the larger model ended below the nested one.
  const auto below = likelihoodRatioTest(-500.0, -500.25);
  EXPECT_DOUBLE_EQ(below.statistic, 0.0);
  EXPECT_DOUBLE_EQ(below.nestedShortfall, 0.25);
  const auto above = likelihoodRatioTest(-500.0, -499.0);
  EXPECT_DOUBLE_EQ(above.nestedShortfall, 0.0);
  EXPECT_DOUBLE_EQ(above.statistic, 2.0);
}

TEST(Lrt, StrongSignal) {
  const auto r = likelihoodRatioTest(-1000.0, -980.0);  // 2*dlnL = 40
  EXPECT_LT(r.pChi2, 1e-9);
  EXPECT_TRUE(r.significantAt(0.001));
}

TEST(Lrt, MixtureHalvesTail) {
  const auto r = likelihoodRatioTest(-100.0, -98.0);
  EXPECT_NEAR(r.pMixture, 0.5 * r.pChi2, 1e-15);
}

TEST(Lrt, RejectsBadDf) {
  EXPECT_THROW(likelihoodRatioTest(-1.0, 0.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace slim::stat
