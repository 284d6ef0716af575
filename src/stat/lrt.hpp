#pragma once
// The likelihood-ratio test for positive selection (paper Sec. I-A):
// 2(lnL1 - lnL0) is compared against chi-square critical values.  For the
// branch-site test, omega2 = 1 lies on the boundary of the H1 parameter
// space, so the asymptotic null is the 50:50 mixture (1/2) chi2_0 + (1/2)
// chi2_1; PAML's manual recommends chi2_1 for a conservative test.  Both
// p-values are reported.

namespace slim::stat {

struct LrtResult {
  double lnL0 = 0;        ///< Maximized log-likelihood under H0.
  double lnL1 = 0;        ///< Maximized log-likelihood under H1.
  double statistic = 0;   ///< 2 (lnL1 - lnL0), clamped at 0.
  /// max(0, lnL0 - lnL1): how far the larger model's fit ended *below* the
  /// nested one.  H1 contains H0, so a positive value means an optimizer
  /// stopped short; the statistic (and the p-values) use the clamped 0,
  /// and the reports print this so the clamp is never silent.
  double nestedShortfall = 0;
  double pChi2 = 1;       ///< p-value from chi2 with df degrees of freedom.
  double pMixture = 1;    ///< p-value from the boundary mixture null.
  double df = 1;

  bool significantAt(double alpha) const noexcept { return pChi2 < alpha; }
};

/// Build the LRT from the two maximized log-likelihoods.
/// df is 1 for the branch-site test of the paper.
LrtResult likelihoodRatioTest(double lnL0, double lnL1, double df = 1.0);

}  // namespace slim::stat
