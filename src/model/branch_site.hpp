#pragma once
// Branch-site model A (Zhang, Nielsen & Yang 2005), Table I of the paper.
//
//   Site class   Proportion                Background   Foreground
//   0            p0                        omega0       omega0
//   1            p1                        1            1
//   2a           (1-p0-p1) p0/(p0+p1)      omega0       omega2
//   2b           (1-p0-p1) p1/(p0+p1)      1            omega2
//
// H1 (alternative): omega2 >= 1 is free.  H0 (null): omega2 = 1 fixed.
// Free parameters: kappa, omega0 in (0,1), omega2, p0, p1, branch lengths.

#include <array>
#include <span>
#include <vector>

#include "bio/genetic_code.hpp"
#include "linalg/matrix.hpp"
#include "model/codon_model.hpp"

namespace slim::model {

enum class Hypothesis { H0, H1 };

inline const char* hypothesisName(Hypothesis h) noexcept {
  return h == Hypothesis::H0 ? "H0" : "H1";
}

inline constexpr int kNumSiteClasses = 4;  ///< 0, 1, 2a, 2b

/// Indices into the distinct-omega arrays used by model A.
inline constexpr int kOmegaConserved = 0;  ///< omega0
inline constexpr int kOmegaNeutral = 1;    ///< omega1 = 1
inline constexpr int kOmegaPositive = 2;   ///< omega2
inline constexpr int kNumOmegaClasses = 3;

/// Substitution-model parameters of model A (branch lengths live in the
/// tree, not here).
struct BranchSiteParams {
  double kappa = 2.0;   ///< transition/transversion ratio, > 0
  double omega0 = 0.1;  ///< conserved-class dN/dS, in (0,1)
  double omega2 = 2.0;  ///< positive-selection dN/dS, >= 1; ignored under H0
  double p0 = 0.45;     ///< proportion of class 0, > 0
  double p1 = 0.45;     ///< proportion of class 1, > 0; p0 + p1 < 1

  /// Throws std::invalid_argument when a parameter is outside its domain.
  void validate(Hypothesis h) const;

  /// The distinct omega values [omega0, 1, omega2] with omega2 := 1 under H0.
  std::array<double, kNumOmegaClasses> distinctOmegas(Hypothesis h) const;
};

/// Table I proportions (p0, p1, p2a, p2b); they sum to 1.
std::array<double, kNumSiteClasses> siteClassProportions(double p0, double p1);

/// d(p0, p1, p2a, p2b) / d(p0, p1): row m is class m's derivative pair.
std::array<std::array<double, 2>, kNumSiteClasses> siteClassProportionJacobian(
    double p0, double p1);

/// Which distinct omega applies to a (site class, branch type) pair.
/// Encodes the Background/Foreground columns of Table I.
constexpr int omegaIndexFor(int siteClass, bool foreground) noexcept {
  switch (siteClass) {
    case 0: return kOmegaConserved;
    case 1: return kOmegaNeutral;
    case 2: return foreground ? kOmegaPositive : kOmegaConserved;  // 2a
    default: return foreground ? kOmegaPositive : kOmegaNeutral;   // 2b
  }
}

/// The per-omega-class substitution machinery of one model instance:
/// exchangeability matrices scaled by a single common factor so that the
/// site-class-weighted expected *background* rate is 1, i.e. branch lengths
/// measure expected substitutions per codon averaged over site classes
/// (PAML's convention for NSsites/branch-site models).
struct BranchSiteQSet {
  std::array<double, kNumOmegaClasses> omegas{};  ///< distinct omega values
  std::vector<linalg::Matrix> scaledS;  ///< S(kappa, omega_k) / scale, size 3
  double scale = 1.0;                   ///< the common normalization factor

  /// Scaled rate matrix Q_k = scaledS[k] * Pi (mostly for tests; the
  /// likelihood engines work from scaledS + pi directly via Eq. 2).
  linalg::Matrix rateMatrix(int omegaIndex, std::span<const double> pi) const;
};

/// Build the scaled exchangeabilities for model A under hypothesis h.
BranchSiteQSet buildBranchSiteQSet(const bio::GeneticCode& gc,
                                   std::span<const double> pi,
                                   const BranchSiteParams& params,
                                   Hypothesis h);

}  // namespace slim::model
