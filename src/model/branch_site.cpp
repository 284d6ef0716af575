#include "model/branch_site.hpp"

#include "support/require.hpp"

namespace slim::model {

using linalg::Matrix;

void BranchSiteParams::validate(Hypothesis h) const {
  SLIM_REQUIRE(kappa > 0, "kappa must be > 0");
  SLIM_REQUIRE(omega0 > 0 && omega0 < 1, "omega0 must be in (0,1)");
  if (h == Hypothesis::H1)
    SLIM_REQUIRE(omega2 >= 1, "omega2 must be >= 1 under H1");
  SLIM_REQUIRE(p0 > 0 && p1 > 0, "p0 and p1 must be > 0");
  SLIM_REQUIRE(p0 + p1 < 1, "p0 + p1 must be < 1");
}

std::array<double, kNumOmegaClasses> BranchSiteParams::distinctOmegas(
    Hypothesis h) const {
  return {omega0, 1.0, h == Hypothesis::H0 ? 1.0 : omega2};
}

std::array<double, kNumSiteClasses> siteClassProportions(double p0, double p1) {
  SLIM_REQUIRE(p0 > 0 && p1 > 0 && p0 + p1 < 1,
               "site class proportions: need p0, p1 > 0 and p0 + p1 < 1");
  const double rest = 1.0 - p0 - p1;
  const double denom = p0 + p1;
  return {p0, p1, rest * p0 / denom, rest * p1 / denom};
}

std::array<std::array<double, 2>, kNumSiteClasses> siteClassProportionJacobian(
    double p0, double p1) {
  SLIM_REQUIRE(p0 > 0 && p1 > 0 && p0 + p1 < 1,
               "site class proportions: need p0, p1 > 0 and p0 + p1 < 1");
  // p2a = r a0 and p2b = r a1 with r = 1 - p0 - p1, s = p0 + p1 and the
  // shares a_i = p_i / s.  r a_i / s is formed as (r a_i) / s, never through
  // s * s: fits can drive p0 and p1 towards 0 together (s ~ 1e-157 has been
  // seen), where s * s underflows and the Jacobian would become inf - inf.
  const double r = 1.0 - p0 - p1;
  const double s = p0 + p1;
  const double a0 = p0 / s, a1 = p1 / s;
  const double ra0s = r * a0 / s, ra1s = r * a1 / s;
  return {{{1.0, 0.0},
           {0.0, 1.0},
           {-a0 + ra1s, -a0 - ra0s},
           {-a1 - ra1s, -a1 + ra0s}}};
}

Matrix BranchSiteQSet::rateMatrix(int omegaIndex,
                                  std::span<const double> pi) const {
  SLIM_REQUIRE(omegaIndex >= 0 && omegaIndex < kNumOmegaClasses,
               "omega index out of range");
  const Matrix& s = scaledS[omegaIndex];
  Matrix q(s.rows(), s.cols());
  buildRateMatrix(s, pi, q);
  return q;
}

BranchSiteQSet buildBranchSiteQSet(const bio::GeneticCode& gc,
                                   std::span<const double> pi,
                                   const BranchSiteParams& params,
                                   Hypothesis h) {
  params.validate(h);
  const int n = gc.numSense();
  SLIM_REQUIRE(static_cast<int>(pi.size()) == n,
               "frequency vector has wrong length");

  BranchSiteQSet set;
  set.omegas = params.distinctOmegas(h);
  set.scaledS.assign(kNumOmegaClasses, Matrix(n, n));

  // Unscaled exchangeabilities and their expected rates.
  std::array<double, kNumOmegaClasses> rate{};
  Matrix q(n, n);
  for (int k = 0; k < kNumOmegaClasses; ++k) {
    buildExchangeability(gc, params.kappa, set.omegas[k], set.scaledS[k]);
    rate[k] = buildRateMatrix(set.scaledS[k], pi, q);
    SLIM_REQUIRE(rate[k] > 0, "degenerate rate matrix (zero expected rate)");
  }

  // One common scale: site-class-weighted mean background rate = 1.
  // Background omegas per Table I: class 0 and 2a use omega0, 1 and 2b use 1.
  const auto prop = siteClassProportions(params.p0, params.p1);
  const double scale = (prop[0] + prop[2]) * rate[kOmegaConserved] +
                       (prop[1] + prop[3]) * rate[kOmegaNeutral];
  SLIM_REQUIRE(scale > 0, "degenerate scale factor");
  set.scale = scale;
  for (auto& s : set.scaledS)
    for (std::size_t i = 0; i < s.size(); ++i) s.data()[i] /= scale;
  return set;
}

}  // namespace slim::model
