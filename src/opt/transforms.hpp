#pragma once
// Parameter transforms: the likelihood is maximized over bounded parameters
// (kappa > 0, omega0 in (0,1), omega2 > 1, (p0,p1) in the open 2-simplex,
// branch lengths > 0), but BFGS works in an unconstrained space.  Each
// transform maps a bounded "external" parameter to an unbounded "internal"
// coordinate and back.

#include <utility>

namespace slim::opt {

/// Scalar transform between a bounded external domain and R.
class Transform {
 public:
  /// x = u (unbounded parameters).
  static Transform identity() noexcept { return {Kind::Identity, 0, 0}; }
  /// x = lo + e^u  (x > lo).
  static Transform logAbove(double lo) noexcept { return {Kind::Log, lo, 0}; }
  /// x = lo + (hi-lo) * logistic(u)  (lo < x < hi).
  static Transform logistic(double lo, double hi) noexcept {
    return {Kind::Logistic, lo, hi};
  }

  double toExternal(double u) const noexcept;
  /// Inverse of toExternal; x is clamped strictly inside the *open* domain
  /// first, so a value sitting exactly on a box bound (a degenerate start,
  /// or a checkpoint written at the clamp) — or even NaN/inf — maps to a
  /// finite internal coordinate instead of +-infinity.
  double toInternal(double x) const noexcept;
  /// d toExternal / du at u — the chain-rule factor mapping an analytic
  /// derivative in the external (bounded) parameter onto the internal
  /// optimization coordinate.
  double derivative(double u) const noexcept;

 private:
  enum class Kind { Identity, Log, Logistic };
  Transform(Kind k, double lo, double hi) noexcept : kind_(k), lo_(lo), hi_(hi) {}
  Kind kind_;
  double lo_, hi_;
};

/// The open 2-simplex {p0, p1 > 0, p0 + p1 < 1} <-> R^2 via the softmax
/// parameterization p0 = e^u / (1 + e^u + e^v), p1 = e^v / (1 + e^u + e^v)
/// (the parameterization PAML itself uses for mixture proportions).
std::pair<double, double> simplex2ToExternal(double u, double v) noexcept;
std::pair<double, double> simplex2ToInternal(double p0, double p1) noexcept;

/// Chain rule through simplex2ToExternal: given df/dp0 and df/dp1 at the
/// point (u, v) maps to, return (df/du, df/dv).
std::pair<double, double> simplex2Gradient(double u, double v, double dfDp0,
                                           double dfDp1) noexcept;

}  // namespace slim::opt
