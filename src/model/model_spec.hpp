#pragma once
// The branch-classification model-spec layer.
//
// A scenario is described by (a) a *branch classification* — the integer #k
// Newick marks partitioning branches into classes 0..B-1, class 0 being the
// background (tree/branch_classes.hpp) — and (b) a ModelSpec owning the
// (site class x branch class) -> omega-slot assignment table.  Four model
// families are expressed as instances of the same spec:
//
//   branch-site A   4 site classes x 2 branch classes, Table I
//                   (the former omegaIndexFor(siteClass, bool) switch)
//   branch          1 site class, one free omega per branch class
//                   (H0: a single shared omega; LRT df = B - 1)
//   clade-c         3 site classes; class 2 is divergent with its own
//                   omega per branch class (H0 = M2a_rel, shared divergent
//                   omega; LRT df = B - 1)
//   site            M1a (H0: omega0 < 1, omega1 = 1) vs M2a (H1: plus an
//                   omega2 >= 1 class); one branch class, marks ignored,
//                   LRT df = 2
//
// ModelSpec is a cheap value type carried in core::FitOptions.  It is also
// the one place that knows each kind's free parameters: parameters(h) lists
// them in optimization-vector order with their transforms, start-jitter
// rules and gradient slots, and mixtureAt() turns concrete values into the
// MixtureSpec the likelihood engine consumes.

#include <span>
#include <vector>

#include "model/site_mixture.hpp"
#include "opt/transforms.hpp"

namespace slim::model {

enum class ModelKind { BranchSite, Branch, CladeC, Site };

/// The `model =` spelling of a kind (also its checkpoint / JSON name).
inline const char* modelKindName(ModelKind k) noexcept {
  switch (k) {
    case ModelKind::BranchSite: return "branch-site";
    case ModelKind::Branch: return "branch";
    case ModelKind::Site: return "site";
    default: return "clade-c";
  }
}

/// How reports label a kind's two hypotheses: M1a / M2a for the site
/// models, H0 / H1 for every other kind.
inline const char* hypothesisName(ModelKind k, Hypothesis h) noexcept {
  if (k == ModelKind::Site) return h == Hypothesis::H0 ? "M1a" : "M2a";
  return hypothesisName(h);
}

/// One entry of a kind's parameter table: a model parameter, the
/// optimization coordinates it occupies, their transform, its start-jitter
/// rule and where the analytic gradient finds its derivative.
struct FreeParameter {
  enum class Name {
    Kappa,        ///< kappa; MixtureGradient::kappa
    Omega0,       ///< omega0 (the conserved class)
    Omega2,       ///< omega2; zero coordinates = pinned at 1 (branch-site H0)
    ClassOmegas,  ///< the per-branch-class omegas, one coordinate each
    Proportions,  ///< (p0, p1) as the simplex2 pair (u, v)
    P0,           ///< p0 alone, p1 = 1 - p0 (M1a)
  };
  /// Start jitter under a seed: jitter(v) = v * exp(U(-0.1, 0.1)), drawn
  /// from one task-local generator in table order, before the branch
  /// lengths.  What a value becomes:
  enum class Jitter {
    None,         ///< v (no draw)
    Scale,        ///< jitter(v)
    ScaleBelow1,  ///< min(0.95, jitter(v))
    ScaleAbove1,  ///< 1 + jitter(v - 1 + 0.1); drawn even when pinned
  };

  Name name;
  int coordinates = 1;
  /// Internal <-> model transform of each coordinate (the simplex pair uses
  /// opt::simplex2* instead).
  opt::Transform transform = opt::Transform::identity();
  Jitter jitter = Jitter::None;
  /// MixtureGradient::omega slot of the first coordinate (omega names;
  /// class omega c reads slot omegaSlot + c).  -1 for the others, whose
  /// derivative is kappa or proportion[0..1].
  int omegaSlot = -1;
};

/// Structural description of one scenario: which model family, over how
/// many branch classes.  Owns the omega assignment table.
struct ModelSpec {
  ModelKind kind = ModelKind::BranchSite;
  int numBranchClasses = 2;  ///< B; class 0 is the background.

  static ModelSpec branchSite() { return {ModelKind::BranchSite, 2}; }
  static ModelSpec branch(int numBranchClasses) {
    return {ModelKind::Branch, numBranchClasses};
  }
  static ModelSpec cladeC(int numBranchClasses) {
    return {ModelKind::CladeC, numBranchClasses};
  }
  static ModelSpec site() { return {ModelKind::Site, 1}; }

  /// Throws std::invalid_argument on an impossible shape.
  void validate() const;

  /// Site classes under h (only the site models differ: M1a 2, M2a 3).
  int numSiteClasses(Hypothesis h = Hypothesis::H1) const noexcept;

  /// Number of distinct omega slots under hypothesis h.
  int numOmegaSlots(Hypothesis h) const noexcept;

  /// The assignment table: row per site class, column per branch class,
  /// entries are omega-slot indices.  For the branch-site kind the table is
  /// hypothesis-independent (H0 pins the slot's *value*, not the slot).
  std::vector<std::vector<int>> omegaAssignment(Hypothesis h) const;

  /// One table cell; branch classes beyond the table clamp to the last
  /// column (matching MixtureClass::omegaFor).
  int omegaSlotFor(int siteClass, int branchClass,
                   Hypothesis h = Hypothesis::H1) const;

  /// Degrees of freedom of the H1-vs-H0 likelihood-ratio test.
  double lrtDegreesOfFreedom() const noexcept;

  /// Number of free per-branch-class omega parameters under h (0 for
  /// branch-site and the site models, which keep the classic
  /// kappa/omega0/omega2/p0/p1 set).
  int numClassOmegaParams(Hypothesis h) const noexcept;

  /// False for the branch model, whose single site class leaves nothing for
  /// an NEB site scan to classify.
  bool hasSiteMixture() const noexcept { return kind != ModelKind::Branch; }

  /// Whether a fit needs some branch to carry a #k mark: every kind whose
  /// omegas differ between branch classes (not the site models).
  bool needsMarkedBranch() const noexcept {
    return kind == ModelKind::BranchSite ||
           (kind != ModelKind::Site && numBranchClasses > 1);
  }

  /// The free parameters under h, in optimization-vector order (the branch
  /// lengths follow them).  Layouts:
  ///   branch-site  [ kappa, omega0, (omega2 under H1), u, v ]
  ///   branch       [ kappa, w_0 .. w_{C-1} ]             (H0: one w)
  ///   clade-c      [ kappa, omega0, w_0 .. w_{C-1}, u, v ]
  ///   site         M1a [ kappa, omega0, p0 ]; M2a [ kappa, omega0, omega2,
  ///                u, v ]
  std::vector<FreeParameter> parameters(Hypothesis h) const;

  /// The starting class omegas under h from the classic start values: the
  /// branch model starts its background class at omega0 and the marked
  /// classes at omega2 (the roles they play in branch-site A), clade C
  /// starts every divergent omega at omega2; empty for the other kinds.
  std::vector<double> startClassOmegas(const BranchSiteParams& start,
                                       Hypothesis h) const;

  /// The mixture at one parameter point: buildModelASpec,
  /// buildBranchModelSpec, buildCladeCSpec, buildM1aSpec (H0) or
  /// buildM2aSpec (H1).  Throws std::invalid_argument outside the domain.
  MixtureSpec mixtureAt(const bio::GeneticCode& gc, std::span<const double> pi,
                        const BranchSiteParams& params,
                        std::span<const double> classOmegas,
                        Hypothesis h) const;

  friend bool operator==(const ModelSpec&, const ModelSpec&) = default;
};

/// Branch model: no site mixture, one omega per branch class.  Pass one
/// omega per branch class (H1) or a single shared omega (H0).
MixtureSpec buildBranchModelSpec(const bio::GeneticCode& gc,
                                 std::span<const double> pi, double kappa,
                                 std::span<const double> classOmegas);

/// Clade model C: site classes {0: omega0 everywhere (p0), 1: omega = 1
/// everywhere (p1), 2: divergent}.  Pass the divergent omegas — one per
/// branch class (H1) or a single shared value (H0 = M2a_rel).
MixtureSpec buildCladeCSpec(const bio::GeneticCode& gc,
                            std::span<const double> pi, double kappa,
                            double omega0, double p0, double p1,
                            std::span<const double> divergentOmegas);

}  // namespace slim::model
