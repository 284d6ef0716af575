#include "model/model_spec.hpp"

#include "support/require.hpp"

namespace slim::model {

void ModelSpec::validate() const {
  switch (kind) {
    case ModelKind::BranchSite:
      SLIM_REQUIRE(numBranchClasses == 2,
                   "branch-site model uses exactly 2 branch classes "
                   "(background + foreground)");
      break;
    case ModelKind::Branch:
    case ModelKind::CladeC:
      SLIM_REQUIRE(numBranchClasses >= 2,
                   "branch/clade models need at least 2 branch classes "
                   "(mark at least one branch)");
      break;
    case ModelKind::Site:
      SLIM_REQUIRE(numBranchClasses == 1,
                   "site models use exactly 1 branch class (marks are "
                   "ignored)");
      break;
  }
}

int ModelSpec::numSiteClasses(Hypothesis h) const noexcept {
  switch (kind) {
    case ModelKind::BranchSite: return kNumSiteClasses;  // 0, 1, 2a, 2b
    case ModelKind::Branch: return 1;
    case ModelKind::Site: return h == Hypothesis::H1 ? 3 : 2;
    default: return 3;  // CladeC: 0, 1, 2 (divergent)
  }
}

int ModelSpec::numOmegaSlots(Hypothesis h) const noexcept {
  switch (kind) {
    case ModelKind::BranchSite: return kNumOmegaClasses;
    case ModelKind::Branch: return h == Hypothesis::H1 ? numBranchClasses : 1;
    case ModelKind::Site:  // omega0, 1 and (M2a) omega2
      return h == Hypothesis::H1 ? 3 : 2;
    default:  // CladeC: omega0, 1, then the divergent omegas.
      return h == Hypothesis::H1 ? 2 + numBranchClasses : 3;
  }
}

std::vector<std::vector<int>> ModelSpec::omegaAssignment(Hypothesis h) const {
  validate();
  std::vector<std::vector<int>> table;
  switch (kind) {
    case ModelKind::BranchSite:
      // Table I of Zhang, Nielsen & Yang (2005): rows 0, 1, 2a, 2b over
      // columns {background, foreground}; slots {omega0, 1, omega2}.
      table = {{kOmegaConserved, kOmegaConserved},
               {kOmegaNeutral, kOmegaNeutral},
               {kOmegaConserved, kOmegaPositive},
               {kOmegaNeutral, kOmegaPositive}};
      break;
    case ModelKind::Branch: {
      std::vector<int> row;
      const int slots = numOmegaSlots(h);
      for (int b = 0; b < numBranchClasses; ++b)
        row.push_back(b < slots ? b : slots - 1);
      table = {row};
      break;
    }
    case ModelKind::CladeC: {
      std::vector<int> divergent;
      for (int b = 0; b < numBranchClasses; ++b)
        divergent.push_back(h == Hypothesis::H1 ? 2 + b : 2);
      table = {{0}, {1}, divergent};
      break;
    }
    case ModelKind::Site:
      table = {{0}, {1}};
      if (h == Hypothesis::H1) table.push_back({2});
      break;
  }
  return table;
}

int ModelSpec::omegaSlotFor(int siteClass, int branchClass,
                            Hypothesis h) const {
  const auto table = omegaAssignment(h);
  SLIM_REQUIRE(siteClass >= 0 &&
                   siteClass < static_cast<int>(table.size()),
               "site class out of range");
  const auto& row = table[static_cast<std::size_t>(siteClass)];
  const auto b = static_cast<std::size_t>(branchClass);
  return b < row.size() ? row[b] : row.back();
}

double ModelSpec::lrtDegreesOfFreedom() const noexcept {
  switch (kind) {
    case ModelKind::BranchSite: return 1.0;
    case ModelKind::Site: return 2.0;  // omega2 and p1
    default: return static_cast<double>(numBranchClasses - 1);
  }
}

int ModelSpec::numClassOmegaParams(Hypothesis h) const noexcept {
  switch (kind) {
    case ModelKind::BranchSite:
    case ModelKind::Site: return 0;
    // Branch: one per branch class; CladeC: the divergent omegas.
    default: return h == Hypothesis::H1 ? numBranchClasses : 1;
  }
}

std::vector<FreeParameter> ModelSpec::parameters(Hypothesis h) const {
  using Name = FreeParameter::Name;
  using Jitter = FreeParameter::Jitter;
  using opt::Transform;
  const bool h1 = h == Hypothesis::H1;
  const FreeParameter kappa{Name::Kappa, 1, Transform::logAbove(0.0),
                            Jitter::Scale};
  const FreeParameter omega0{Name::Omega0, 1, Transform::logistic(0.0, 1.0),
                             Jitter::ScaleBelow1, 0};
  const FreeParameter omega2{Name::Omega2, 1, Transform::logAbove(1.0),
                             Jitter::ScaleAbove1, 2};
  const FreeParameter proportions{Name::Proportions, 2};
  const FreeParameter classOmegas{Name::ClassOmegas, numClassOmegaParams(h),
                                  Transform::logAbove(0.0), Jitter::Scale};
  switch (kind) {
    case ModelKind::BranchSite: {
      // H0 pins omega2 at 1 but still draws its jitter, so a seeded H0 fit
      // keeps the branch-length draws it always had.
      FreeParameter w2 = omega2;
      if (!h1) w2.coordinates = 0;
      return {kappa, omega0, w2, proportions};
    }
    case ModelKind::Branch: {
      FreeParameter w = classOmegas;
      w.omegaSlot = 0;
      return {kappa, w};
    }
    case ModelKind::CladeC: {
      FreeParameter w = classOmegas;
      w.omegaSlot = 2;  // after omega0 and the neutral class
      return {kappa, omega0, w, proportions};
    }
    case ModelKind::Site:
      if (h1) return {kappa, omega0, omega2, proportions};
      return {kappa, omega0,
              {Name::P0, 1, Transform::logistic(0.0, 1.0), Jitter::None}};
  }
  return {};
}

std::vector<double> ModelSpec::startClassOmegas(const BranchSiteParams& start,
                                                Hypothesis h) const {
  std::vector<double> omegas(
      static_cast<std::size_t>(numClassOmegaParams(h)), start.omega2);
  if (kind == ModelKind::Branch) omegas.front() = start.omega0;
  return omegas;
}

MixtureSpec ModelSpec::mixtureAt(const bio::GeneticCode& gc,
                                 std::span<const double> pi,
                                 const BranchSiteParams& params,
                                 std::span<const double> classOmegas,
                                 Hypothesis h) const {
  switch (kind) {
    case ModelKind::BranchSite:
      return buildModelASpec(gc, pi, params, h);
    case ModelKind::Branch:
      return buildBranchModelSpec(gc, pi, params.kappa, classOmegas);
    case ModelKind::CladeC:
      return buildCladeCSpec(gc, pi, params.kappa, params.omega0, params.p0,
                             params.p1, classOmegas);
    case ModelKind::Site: {
      const SiteModelParams site{params.kappa, params.omega0, params.omega2,
                                 params.p0, params.p1};
      return h == Hypothesis::H0 ? buildM1aSpec(gc, pi, site)
                                 : buildM2aSpec(gc, pi, site);
    }
  }
  SLIM_REQUIRE(false, "mixtureAt: unknown model kind");
  return {};
}

MixtureSpec buildBranchModelSpec(const bio::GeneticCode& gc,
                                 std::span<const double> pi, double kappa,
                                 std::span<const double> classOmegas) {
  SLIM_REQUIRE(kappa > 0, "kappa must be > 0");
  SLIM_REQUIRE(!classOmegas.empty(), "branch model needs >= 1 omega");
  for (const double w : classOmegas)
    SLIM_REQUIRE(w > 0, "branch-class omega must be > 0");
  std::vector<int> row(classOmegas.size());
  for (std::size_t b = 0; b < row.size(); ++b) row[b] = static_cast<int>(b);
  return buildMixtureSpec(gc, pi, kappa,
                          {classOmegas.begin(), classOmegas.end()},
                          {MixtureClass(1.0, std::move(row))});
}

MixtureSpec buildCladeCSpec(const bio::GeneticCode& gc,
                            std::span<const double> pi, double kappa,
                            double omega0, double p0, double p1,
                            std::span<const double> divergentOmegas) {
  SLIM_REQUIRE(kappa > 0, "kappa must be > 0");
  SLIM_REQUIRE(omega0 > 0 && omega0 < 1, "omega0 must be in (0,1)");
  SLIM_REQUIRE(p0 > 0 && p1 > 0 && p0 + p1 < 1,
               "need p0, p1 > 0 and p0 + p1 < 1");
  SLIM_REQUIRE(!divergentOmegas.empty(), "clade model C needs >= 1 "
                                         "divergent omega");
  for (const double w : divergentOmegas)
    SLIM_REQUIRE(w > 0, "divergent omega must be > 0");
  std::vector<double> omegas = {omega0, 1.0};
  omegas.insert(omegas.end(), divergentOmegas.begin(), divergentOmegas.end());
  std::vector<int> divergentRow(divergentOmegas.size());
  for (std::size_t b = 0; b < divergentRow.size(); ++b)
    divergentRow[b] = static_cast<int>(2 + b);
  MixtureSpec spec = buildMixtureSpec(
      gc, pi, kappa, std::move(omegas),
      {MixtureClass(p0, 0, 0), MixtureClass(p1, 1, 1),
       MixtureClass(1.0 - p0 - p1, std::move(divergentRow))});
  spec.omegaFree[1] = 0;  // the neutral class's omega = 1
  spec.proportionJacobian = {{1.0, 0.0}, {0.0, 1.0}, {-1.0, -1.0}};
  return spec;
}

}  // namespace slim::model
