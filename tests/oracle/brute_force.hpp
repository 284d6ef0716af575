#pragma once
// Brute-force likelihood of any MixtureSpec: a test oracle.
//
// Shares nothing with lik::BranchSiteLikelihood beyond the spec itself:
// transition matrices come from the Pade oracle (no eigendecomposition),
// each class's omega on a branch is read through MixtureClass::omegaFor of
// that branch's #k mark, and every site pattern is pruned by plain
// recursion per class (no pattern bundling, no scaling, no caching).  Keep
// trees small: without scaling, deep trees underflow.

#include <span>

#include "model/site_mixture.hpp"
#include "seqio/alignment.hpp"
#include "tree/tree.hpp"

namespace slim::oracle {

/// ln L of `spec` over the alignment's site patterns on `tree` (its current
/// branch lengths and marks).  Throws std::invalid_argument when a leaf has
/// no sequence.
double bruteForceLnL(const seqio::CodonAlignment& alignment,
                     const seqio::SitePatterns& patterns,
                     std::span<const double> pi, const tree::Tree& tree,
                     const model::MixtureSpec& spec);

}  // namespace slim::oracle
