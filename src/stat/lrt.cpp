#include "stat/lrt.hpp"

#include <algorithm>

#include "stat/special_functions.hpp"
#include "support/require.hpp"

namespace slim::stat {

LrtResult likelihoodRatioTest(double lnL0, double lnL1, double df) {
  SLIM_REQUIRE(df > 0, "LRT: df must be positive");
  LrtResult r;
  r.lnL0 = lnL0;
  r.lnL1 = lnL1;
  r.df = df;
  // lnL1 can dip below lnL0 when an optimizer stops short; the statistic
  // is 0 then, and the shortfall is kept for the reports.
  r.statistic = std::max(0.0, 2.0 * (lnL1 - lnL0));
  r.nestedShortfall = std::max(0.0, lnL0 - lnL1);
  r.pChi2 = chi2Sf(r.statistic, df);
  // Boundary mixture (1/2) chi2_0 + (1/2) chi2_df: point mass at 0 halves
  // the tail for any positive statistic.
  r.pMixture = r.statistic <= 0.0 ? 1.0 : 0.5 * chi2Sf(r.statistic, df);
  return r;
}

}  // namespace slim::stat
