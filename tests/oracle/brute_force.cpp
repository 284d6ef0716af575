#include "oracle/brute_force.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "model/codon_model.hpp"
#include "oracle/pade.hpp"

namespace slim::oracle {

using linalg::Matrix;

double bruteForceLnL(const seqio::CodonAlignment& alignment,
                     const seqio::SitePatterns& patterns,
                     std::span<const double> pi, const tree::Tree& tree,
                     const model::MixtureSpec& spec) {
  const int n = static_cast<int>(pi.size());

  // P(t) per (branch node, omega slot).
  std::vector<std::vector<Matrix>> pMat(tree.numNodes());
  for (int id : tree.branches()) {
    for (int k = 0; k < spec.numOmegas(); ++k) {
      Matrix q(n, n);
      model::buildRateMatrix(spec.scaledS[k], pi, q);
      for (std::size_t x = 0; x < q.size(); ++x)
        q.data()[x] *= tree.branchLength(id);
      pMat[id].push_back(expmPade(q));
    }
  }

  std::vector<int> leafRow(tree.numNodes(), -1);
  for (int id : tree.leaves()) {
    for (std::size_t s = 0; s < alignment.names.size(); ++s)
      if (alignment.names[s] == tree.node(id).label)
        leafRow[id] = static_cast<int>(s);
    if (leafRow[id] < 0)
      throw std::invalid_argument("bruteForceLnL: leaf '" +
                                  tree.node(id).label + "' has no sequence");
  }

  double lnL = 0.0;
  for (std::size_t h = 0; h < patterns.numPatterns(); ++h) {
    double fh = 0.0;
    for (const model::MixtureClass& c : spec.classes) {
      std::function<std::vector<double>(int)> partial =
          [&](int node) -> std::vector<double> {
        if (tree.node(node).isLeaf()) {
          const int state = patterns.patterns[h][leafRow[node]];
          if (state == seqio::kMissingState) return std::vector<double>(n, 1.0);
          std::vector<double> v(n, 0.0);
          v[state] = 1.0;
          return v;
        }
        std::vector<double> v(n, 1.0);
        for (int child : tree.node(node).children) {
          const auto w = partial(child);
          const Matrix& p = pMat[child][c.omegaFor(tree.node(child).mark)];
          for (int i = 0; i < n; ++i) {
            double s = 0.0;
            for (int j = 0; j < n; ++j) s += p(i, j) * w[j];
            v[i] *= s;
          }
        }
        return v;
      };
      const auto rootV = partial(tree.root());
      double fc = 0.0;
      for (int i = 0; i < n; ++i) fc += pi[i] * rootV[i];
      fh += c.proportion * fc;
    }
    lnL += patterns.weights[h] * std::log(fh);
  }
  return lnL;
}

}  // namespace slim::oracle
