#pragma once
// Generic omega-class mixtures.
//
// Branch-site model A is one member of a family of codon mixture models;
// the paper's conclusion notes that "the optimized likelihood computation
// can also be applied to further maximum likelihood-based evolutionary
// models".  MixtureSpec is the common description the likelihood engine
// consumes: a set of distinct omega classes (with pre-scaled
// exchangeabilities) plus site classes assigning an omega to each *branch
// class* (the integer #k Newick mark; 0 = background).  Site models (no
// branch component) simply use one omega for every branch class.
//
// Provided builders:
//   - model A / model A-null      (Table I; used via branch_site.hpp)
//   - M1a "nearly neutral"        (classes: omega0 < 1, omega1 = 1)
//   - M2a "positive selection"    (M1a + a class with omega2 > 1)
// The M1a-vs-M2a LRT (df = 2) is the classic *site* test for positive
// selection (Yang et al. 2005), complementing the branch-site test.
// Branch and clade model C builders live in model/model_spec.hpp.

#include <array>
#include <cstddef>
#include <vector>

#include "bio/genetic_code.hpp"
#include "linalg/matrix.hpp"
#include "model/branch_site.hpp"

namespace slim::model {

/// One site class of a mixture: a weight plus the omega assignment row,
/// one entry per branch class.  Branch classes beyond the row clamp to the
/// last entry, so a two-entry {background, foreground} row behaves exactly
/// like the classic boolean foreground switch.
struct MixtureClass {
  double proportion = 0;  ///< Class weight; all proportions sum to 1.
  std::vector<int> omega;  ///< omega[b] = index into MixtureSpec::omegas
                           ///< for branch class b; omega[0] = background.

  MixtureClass() = default;
  /// Classic two-column (background, foreground) row; collapses to a
  /// single entry when both columns agree (pure site class).
  MixtureClass(double p, int background, int foreground) : proportion(p) {
    omega.push_back(background);
    if (foreground != background) omega.push_back(foreground);
  }
  /// General row: one omega index per branch class.
  MixtureClass(double p, std::vector<int> perBranchClass)
      : proportion(p), omega(std::move(perBranchClass)) {}

  int omegaBackground() const noexcept { return omega.front(); }
  int omegaForeground() const noexcept { return omega.back(); }
  /// The omega index for branch class `branchClass` (a tree mark); marks
  /// beyond the row clamp to the last column.
  int omegaFor(int branchClass) const noexcept {
    const auto b = static_cast<std::size_t>(branchClass);
    return b < omega.size() ? omega[b] : omega.back();
  }
};

/// A ready-to-evaluate mixture: distinct omegas with their scaled
/// exchangeability matrices, plus the site classes.
struct MixtureSpec {
  std::vector<double> omegas;            ///< Distinct omega values.
  std::vector<linalg::Matrix> scaledS;   ///< S(kappa, omega_k) / scale.
  std::vector<MixtureClass> classes;
  double scale = 1.0;
  double kappa = 0;  ///< The kappa scaledS was built with.
  /// Per omega slot: 1 when its value is a free parameter of the model
  /// (the analytic gradient differentiates it), 0 when fixed (omega = 1
  /// slots, model A's omega2 under H0).  Builders fill it; empty = none.
  std::vector<char> omegaFree;
  /// Per class: d proportion / d (p0, p1), the mixture parameters the
  /// builder derived the proportions from (zeros when it has none; M1a
  /// uses only the p0 column).  Empty = none.
  std::vector<std::array<double, 2>> proportionJacobian;

  int numClasses() const noexcept { return static_cast<int>(classes.size()); }
  int numOmegas() const noexcept { return static_cast<int>(omegas.size()); }

  /// Structural checks (proportions sum to 1, indices in range, shapes).
  void validate(int numSense) const;

  /// True when no class distinguishes any branch class from the background
  /// (a pure site model, evaluable on an unmarked tree).
  bool branchHomogeneous() const noexcept;
};

/// Common scaling convention: one factor normalizing the proportion-weighted
/// mean *background* substitution rate to 1 (branch lengths = expected
/// substitutions per codon averaged over classes).  Every omega slot is
/// marked free and the proportion Jacobian is zero; the model builders
/// below overwrite both with what their parameters actually are.
MixtureSpec buildMixtureSpec(const bio::GeneticCode& gc,
                             std::span<const double> pi, double kappa,
                             std::vector<double> omegas,
                             std::vector<MixtureClass> classes);

/// The model-side factors of the analytic gradient: how the spec's numbers
/// move with its free inputs kappa, omega_k and the class proportions.
/// scaledS_k = S(kappa, omega_k) / scale with scale = sum_c proportion_c *
/// rate(background omega of c), so every input reaches ln L twice: through
/// its own exchangeabilities (scale held fixed) and through the common
/// scale.
struct MixtureDerivatives {
  /// Per omega slot: d scaledS_k / d kappa at fixed scale.
  std::vector<linalg::Matrix> dScaledSdKappa;
  /// Per omega slot: d scaledS_k / d omega_k at fixed scale (empty matrix
  /// for a fixed slot).
  std::vector<linalg::Matrix> dScaledSdOmega;
  double dScaleDKappa = 0;
  std::vector<double> dScaleDOmega;       ///< Per omega slot.
  std::vector<double> dScaleDProportion;  ///< Per class: its background rate.
};

/// Derivatives of spec (built by buildMixtureSpec or one of the model
/// builders) with respect to kappa, its free omega slots and its class
/// proportions.
MixtureDerivatives mixtureDerivatives(const bio::GeneticCode& gc,
                                      std::span<const double> pi,
                                      const MixtureSpec& spec);

/// Model A of Table I as a MixtureSpec (equivalent to buildBranchSiteQSet +
/// siteClassProportions; used by the generic evaluator path).
MixtureSpec buildModelASpec(const bio::GeneticCode& gc,
                            std::span<const double> pi,
                            const BranchSiteParams& params, Hypothesis h);

/// Parameters of the M1a / M2a site models.
struct SiteModelParams {
  double kappa = 2.0;
  double omega0 = 0.1;  ///< in (0,1)
  double omega2 = 2.0;  ///< > 1; M2a only
  double p0 = 0.5;      ///< proportion of the conserved class
  double p1 = 0.4;      ///< proportion of the neutral class; M2a only
                        ///< (M1a uses p1 = 1 - p0)
};

/// M1a "nearly neutral": classes {omega0 (p0), omega1 = 1 (1-p0)}.
MixtureSpec buildM1aSpec(const bio::GeneticCode& gc,
                         std::span<const double> pi,
                         const SiteModelParams& params);

/// M2a "positive selection": classes {omega0 (p0), 1 (p1), omega2 (rest)}.
MixtureSpec buildM2aSpec(const bio::GeneticCode& gc,
                         std::span<const double> pi,
                         const SiteModelParams& params);

}  // namespace slim::model
