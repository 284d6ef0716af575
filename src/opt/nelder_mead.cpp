#include "opt/nelder_mead.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/require.hpp"

namespace slim::opt {

namespace {

// Standard coefficients: reflection, expansion, contraction, shrink.
constexpr double kAlpha = 1.0;
constexpr double kGamma = 2.0;
constexpr double kRho = 0.5;
constexpr double kSigma = 0.5;

double sanitize(double v) noexcept {
  return std::isfinite(v) ? v : std::numeric_limits<double>::infinity();
}

}  // namespace

NelderMeadResult minimizeNelderMead(ObjectiveFunction& f,
                                    std::span<const double> x0,
                                    const NelderMeadOptions& options,
                                    const NelderMeadCheckpointSink& sink,
                                    const NelderMeadState* source) {
  const std::size_t n = x0.size();
  SLIM_REQUIRE(n > 0, "Nelder-Mead: empty parameter vector");
  SLIM_REQUIRE(options.initialStep > 0, "Nelder-Mead: initialStep must be > 0");

  NelderMeadResult res;
  std::vector<std::vector<double>> vertex;
  std::vector<double> fv;
  int startIteration = 0;

  if (source != nullptr) {
    // Resume: the simplex and values are the whole driver state.
    SLIM_REQUIRE(source->vertex.size() == n + 1 && source->fv.size() == n + 1,
                 "Nelder-Mead: checkpoint simplex size does not match the "
                 "problem");
    for (const auto& v : source->vertex) {
      SLIM_REQUIRE(v.size() == n,
                   "Nelder-Mead: checkpoint vertex dimension mismatch");
      for (const double x : v)
        SLIM_REQUIRE(std::isfinite(x),
                     "Nelder-Mead: checkpoint vertex is not finite");
    }
    // Vertex *values* may legitimately be +inf (infeasible points), but a
    // NaN would poison every ordering comparison.
    for (const double v : source->fv)
      SLIM_REQUIRE(!std::isnan(v), "Nelder-Mead: checkpoint value is NaN");
    vertex = source->vertex;
    fv = source->fv;
    res.functionEvaluations = source->functionEvaluations;
    startIteration = source->iterations;
  } else {
    // Simplex of n+1 vertices: x0 and x0 + step*e_i, evaluated as one batch.
    vertex.assign(n + 1, std::vector<double>(x0.begin(), x0.end()));
    for (std::size_t i = 1; i <= n; ++i) vertex[i][i - 1] += options.initialStep;
    fv = f.evaluateMany(vertex);
    res.functionEvaluations += static_cast<long>(fv.size());
    for (auto& v : fv) v = sanitize(v);
    SLIM_REQUIRE(std::isfinite(fv[0]),
                 "Nelder-Mead: objective not finite at the starting point");
  }

  std::vector<std::size_t> order(n + 1);
  std::vector<double> centroid(n);
  std::vector<double> xr(n), xe(n);
  std::vector<double> xc(n);

  const auto snapshot = [&](int completedIterations) {
    if (!sink) return;
    NelderMeadState st;
    st.vertex = vertex;
    st.fv = fv;
    st.iterations = completedIterations;
    st.functionEvaluations = res.functionEvaluations;
    sink(st);
  };
  if (source == nullptr) snapshot(0);

  // One reflect/expand/contract/shrink step; returns true when the
  // convergence test at the top of the step fires.
  const auto step = [&]() -> bool {
    // Order vertices by value.
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return fv[a] < fv[b]; });
    const std::size_t best = order[0], worst = order[n], second = order[n - 1];

    // Convergence: value spread and simplex diameter both small.
    double diameter = 0;
    for (std::size_t i = 0; i < n; ++i)
      diameter = std::max(diameter,
                          std::fabs(vertex[worst][i] - vertex[best][i]));
    const double spread =
        std::isfinite(fv[worst]) ? fv[worst] - fv[best]
                                 : std::numeric_limits<double>::infinity();
    if (spread < options.fTolerance * (1.0 + std::fabs(fv[best])) &&
        diameter < options.xTolerance) {
      res.converged = true;
      return true;
    }

    // Centroid of all but the worst vertex.
    for (std::size_t i = 0; i < n; ++i) centroid[i] = 0;
    for (std::size_t k = 0; k <= n; ++k) {
      if (k == worst) continue;
      for (std::size_t i = 0; i < n; ++i) centroid[i] += vertex[k][i];
    }
    for (std::size_t i = 0; i < n; ++i) centroid[i] /= static_cast<double>(n);

    // Reflection; the expansion point is evaluated only when the reflection
    // beats the best vertex.
    for (std::size_t i = 0; i < n; ++i) {
      xr[i] = centroid[i] + kAlpha * (centroid[i] - vertex[worst][i]);
      xe[i] = centroid[i] + kGamma * (xr[i] - centroid[i]);
    }
    const double fr = sanitize(f.value(xr));
    ++res.functionEvaluations;

    if (fr < fv[best]) {
      const double fe = sanitize(f.value(xe));
      ++res.functionEvaluations;
      if (fe < fr) {
        vertex[worst] = xe;
        fv[worst] = fe;
      } else {
        vertex[worst] = xr;
        fv[worst] = fr;
      }
      return false;
    }
    if (fr < fv[second]) {
      vertex[worst] = xr;
      fv[worst] = fr;
      return false;
    }

    // Contraction (outside if the reflected point improved on the worst,
    // inside otherwise).
    const bool outside = fr < fv[worst];
    const auto& towards = outside ? xr : vertex[worst];
    for (std::size_t i = 0; i < n; ++i)
      xc[i] = centroid[i] + kRho * (towards[i] - centroid[i]);
    const double fc = sanitize(f.value(xc));
    ++res.functionEvaluations;
    if (fc < (outside ? fr : fv[worst])) {
      vertex[worst] = xc;
      fv[worst] = fc;
      return false;
    }

    // Shrink towards the best vertex (n moved vertices, one batch).
    std::vector<std::vector<double>> shrunk;
    std::vector<std::size_t> shrunkIdx;
    shrunk.reserve(n);
    shrunkIdx.reserve(n);
    for (std::size_t k = 0; k <= n; ++k) {
      if (k == best) continue;
      for (std::size_t i = 0; i < n; ++i)
        vertex[k][i] = vertex[best][i] + kSigma * (vertex[k][i] - vertex[best][i]);
      shrunk.push_back(vertex[k]);
      shrunkIdx.push_back(k);
    }
    const std::vector<double> shrunkValues = f.evaluateMany(shrunk);
    res.functionEvaluations += static_cast<long>(shrunk.size());
    for (std::size_t j = 0; j < shrunkIdx.size(); ++j)
      fv[shrunkIdx[j]] = sanitize(shrunkValues[j]);
    return false;
  };

  for (res.iterations = startIteration; res.iterations < options.maxIterations;
       ++res.iterations) {
    // Same boundary the snapshot uses, so a cancelled fit stops at a state a
    // resume can continue bit-identically.
    if (options.cancel && options.cancel()) {
      res.cancelled = true;
      res.message = "cancelled";
      break;
    }
    if (step()) break;
    snapshot(res.iterations + 1);
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i <= n; ++i)
    if (fv[i] < fv[best]) best = i;
  res.x = vertex[best];
  res.value = fv[best];
  return res;
}

NelderMeadResult minimizeNelderMead(const Objective& f,
                                    std::span<const double> x0,
                                    const NelderMeadOptions& options) {
  CallableObjective obj(f);
  return minimizeNelderMead(obj, x0, options);
}

}  // namespace slim::opt
