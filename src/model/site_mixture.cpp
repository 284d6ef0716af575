#include "model/site_mixture.hpp"

#include <cmath>

#include "model/codon_model.hpp"
#include "model/model_spec.hpp"
#include "support/require.hpp"

namespace slim::model {

using linalg::Matrix;

void MixtureSpec::validate(int numSense) const {
  SLIM_REQUIRE(!omegas.empty() && !classes.empty(), "empty mixture");
  SLIM_REQUIRE(omegas.size() == scaledS.size(), "omegas/scaledS mismatch");
  for (const auto& s : scaledS)
    SLIM_REQUIRE(s.rows() == static_cast<std::size_t>(numSense) && s.square(),
                 "scaled exchangeability has wrong shape");
  double total = 0;
  for (const auto& c : classes) {
    SLIM_REQUIRE(c.proportion > 0, "class proportion must be > 0");
    SLIM_REQUIRE(!c.omega.empty(), "class omega row must not be empty");
    for (const int w : c.omega)
      SLIM_REQUIRE(w >= 0 && w < numOmegas(), "omega index out of range");
    total += c.proportion;
  }
  SLIM_REQUIRE(std::fabs(total - 1.0) < 1e-9,
               "class proportions must sum to 1");
  SLIM_REQUIRE(scale > 0, "scale must be positive");
  SLIM_REQUIRE(omegaFree.empty() || omegaFree.size() == omegas.size(),
               "omegaFree must have one entry per omega slot");
  SLIM_REQUIRE(proportionJacobian.empty() ||
                   proportionJacobian.size() == classes.size(),
               "proportionJacobian must have one row per class");
}

bool MixtureSpec::branchHomogeneous() const noexcept {
  for (const auto& c : classes)
    for (const int w : c.omega)
      if (w != c.omega.front()) return false;
  return true;
}

MixtureSpec buildMixtureSpec(const bio::GeneticCode& gc,
                             std::span<const double> pi, double kappa,
                             std::vector<double> omegas,
                             std::vector<MixtureClass> classes) {
  const int n = gc.numSense();
  SLIM_REQUIRE(static_cast<int>(pi.size()) == n, "pi has wrong length");

  MixtureSpec spec;
  spec.omegas = std::move(omegas);
  spec.classes = std::move(classes);
  spec.scaledS.assign(spec.omegas.size(), Matrix(n, n));

  std::vector<double> rate(spec.omegas.size());
  Matrix q(n, n);
  for (std::size_t k = 0; k < spec.omegas.size(); ++k) {
    buildExchangeability(gc, kappa, spec.omegas[k], spec.scaledS[k]);
    rate[k] = buildRateMatrix(spec.scaledS[k], pi, q);
    SLIM_REQUIRE(rate[k] > 0, "degenerate rate matrix");
  }

  double scale = 0;
  for (const auto& c : spec.classes)
    scale += c.proportion * rate[c.omegaBackground()];
  SLIM_REQUIRE(scale > 0, "degenerate scale factor");
  spec.scale = scale;
  for (auto& s : spec.scaledS)
    for (std::size_t i = 0; i < s.size(); ++i) s.data()[i] /= scale;
  spec.kappa = kappa;
  spec.omegaFree.assign(spec.omegas.size(), 1);
  spec.proportionJacobian.assign(spec.classes.size(), {0.0, 0.0});

  spec.validate(n);
  return spec;
}

MixtureDerivatives mixtureDerivatives(const bio::GeneticCode& gc,
                                      std::span<const double> pi,
                                      const MixtureSpec& spec) {
  const int n = gc.numSense();
  const std::size_t slots = spec.omegas.size();
  SLIM_REQUIRE(spec.kappa > 0, "mixture derivatives need the spec's kappa");
  MixtureDerivatives d;
  d.dScaledSdKappa.assign(slots, Matrix(n, n));
  d.dScaledSdOmega.resize(slots);
  d.dScaleDOmega.assign(slots, 0.0);
  std::vector<double> rate(slots), rateDKappa(slots), rateDOmega(slots, 0.0);
  Matrix s(n, n), q(n, n);
  for (std::size_t k = 0; k < slots; ++k) {
    Matrix& dk = d.dScaledSdKappa[k];
    Matrix* dw = nullptr;
    if (!spec.omegaFree.empty() && spec.omegaFree[k]) {
      dw = &d.dScaledSdOmega[k];
      dw->resize(n, n);
    }
    buildExchangeability(gc, spec.kappa, spec.omegas[k], s, &dk, dw);
    // The expected rate is linear in S, so buildRateMatrix of a derivative
    // matrix is the derivative of the rate.
    rate[k] = buildRateMatrix(s, pi, q);
    rateDKappa[k] = buildRateMatrix(dk, pi, q);
    for (std::size_t i = 0; i < dk.size(); ++i) dk.data()[i] /= spec.scale;
    if (!dw) continue;
    rateDOmega[k] = buildRateMatrix(*dw, pi, q);
    for (std::size_t i = 0; i < dw->size(); ++i) dw->data()[i] /= spec.scale;
  }
  for (const auto& c : spec.classes) {
    const int bg = c.omegaBackground();
    d.dScaleDKappa += c.proportion * rateDKappa[bg];
    d.dScaleDOmega[bg] += c.proportion * rateDOmega[bg];
    d.dScaleDProportion.push_back(rate[bg]);
  }
  return d;
}

MixtureSpec buildModelASpec(const bio::GeneticCode& gc,
                            std::span<const double> pi,
                            const BranchSiteParams& params, Hypothesis h) {
  params.validate(h);
  const auto omegas = params.distinctOmegas(h);
  const auto prop = siteClassProportions(params.p0, params.p1);
  const ModelSpec table = ModelSpec::branchSite();
  std::vector<MixtureClass> classes(kNumSiteClasses);
  for (int m = 0; m < kNumSiteClasses; ++m)
    classes[m] = {prop[m], table.omegaSlotFor(m, 0), table.omegaSlotFor(m, 1)};
  MixtureSpec spec = buildMixtureSpec(gc, pi, params.kappa,
                                      {omegas.begin(), omegas.end()},
                                      std::move(classes));
  spec.omegaFree = {1, 0, h == Hypothesis::H1 ? char{1} : char{0}};
  const auto jac = siteClassProportionJacobian(params.p0, params.p1);
  spec.proportionJacobian.assign(jac.begin(), jac.end());
  return spec;
}

MixtureSpec buildM1aSpec(const bio::GeneticCode& gc,
                         std::span<const double> pi,
                         const SiteModelParams& params) {
  SLIM_REQUIRE(params.kappa > 0, "kappa must be > 0");
  SLIM_REQUIRE(params.omega0 > 0 && params.omega0 < 1,
               "omega0 must be in (0,1)");
  SLIM_REQUIRE(params.p0 > 0 && params.p0 < 1, "p0 must be in (0,1)");
  MixtureSpec spec =
      buildMixtureSpec(gc, pi, params.kappa, {params.omega0, 1.0},
                       {{params.p0, 0, 0}, {1.0 - params.p0, 1, 1}});
  spec.omegaFree = {1, 0};
  spec.proportionJacobian = {{1.0, 0.0}, {-1.0, 0.0}};
  return spec;
}

MixtureSpec buildM2aSpec(const bio::GeneticCode& gc,
                         std::span<const double> pi,
                         const SiteModelParams& params) {
  SLIM_REQUIRE(params.kappa > 0, "kappa must be > 0");
  SLIM_REQUIRE(params.omega0 > 0 && params.omega0 < 1,
               "omega0 must be in (0,1)");
  SLIM_REQUIRE(params.omega2 >= 1, "omega2 must be >= 1");
  SLIM_REQUIRE(params.p0 > 0 && params.p1 > 0 && params.p0 + params.p1 < 1,
               "need p0, p1 > 0 and p0 + p1 < 1");
  MixtureSpec spec = buildMixtureSpec(
      gc, pi, params.kappa, {params.omega0, 1.0, params.omega2},
      {{params.p0, 0, 0},
       {params.p1, 1, 1},
       {1.0 - params.p0 - params.p1, 2, 2}});
  spec.omegaFree = {1, 0, 1};
  spec.proportionJacobian = {{1.0, 0.0}, {0.0, 1.0}, {-1.0, -1.0}};
  return spec;
}

}  // namespace slim::model
