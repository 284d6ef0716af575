#include "opt/transforms.hpp"

#include <algorithm>
#include <cmath>

namespace slim::opt {

namespace {
// Clamp margin keeping internal coordinates in a numerically benign range:
// |u| <= ~34 for log/logistic transforms.
constexpr double kTiny = 1e-15;
// Upper clamp for the log transform's argument: log(kHuge) ~ 690 is still a
// benign internal coordinate, while exp() of anything near it stays finite.
constexpr double kHuge = 1e300;

// Clamp v into [lo, hi] treating NaN as lo.  std::clamp/std::max propagate
// NaN (every comparison is false), which is exactly the poison this guards
// against: a parameter sitting on — or knocked past — a box bound must map
// to a *finite* internal coordinate, or a resumed BFGS step inherits
// NaN/inf and every later iterate is garbage.
double clampFinite(double v, double lo, double hi) noexcept {
  if (!(v > lo)) return lo;  // also catches NaN
  if (!(v < hi)) return hi;
  return v;
}
}  // namespace

double Transform::toExternal(double u) const noexcept {
  switch (kind_) {
    case Kind::Identity: return u;
    case Kind::Log: return lo_ + std::exp(u);
    case Kind::Logistic: {
      const double s = 1.0 / (1.0 + std::exp(-u));
      return lo_ + (hi_ - lo_) * s;
    }
  }
  return u;
}

double Transform::toInternal(double x) const noexcept {
  switch (kind_) {
    case Kind::Identity: return x;
    case Kind::Log: return std::log(clampFinite(x - lo_, kTiny, kHuge));
    case Kind::Logistic: {
      const double w = (hi_ - lo_);
      const double s = clampFinite((x - lo_) / w, kTiny, 1.0 - kTiny);
      return std::log(s / (1.0 - s));
    }
  }
  return x;
}

double Transform::derivative(double u) const noexcept {
  switch (kind_) {
    case Kind::Identity: return 1.0;
    case Kind::Log: return std::exp(u);
    case Kind::Logistic: {
      const double s = 1.0 / (1.0 + std::exp(-u));
      return (hi_ - lo_) * s * (1.0 - s);
    }
  }
  return 1.0;
}

std::pair<double, double> simplex2ToExternal(double u, double v) noexcept {
  // Subtract the max exponent for overflow safety.
  const double m = std::max({0.0, u, v});
  const double eu = std::exp(u - m), ev = std::exp(v - m), e0 = std::exp(-m);
  const double denom = e0 + eu + ev;
  return {eu / denom, ev / denom};
}

std::pair<double, double> simplex2Gradient(double u, double v, double dfDp0,
                                           double dfDp1) noexcept {
  // dp0/du = p0 (1 - p0), dp0/dv = dp1/du = -p0 p1, dp1/dv = p1 (1 - p1).
  const auto [p0, p1] = simplex2ToExternal(u, v);
  return {p0 * ((1.0 - p0) * dfDp0 - p1 * dfDp1),
          p1 * ((1.0 - p1) * dfDp1 - p0 * dfDp0)};
}

std::pair<double, double> simplex2ToInternal(double p0, double p1) noexcept {
  p0 = clampFinite(p0, kTiny, 1.0 - kTiny);
  p1 = clampFinite(p1, kTiny, 1.0 - kTiny);
  const double rest = clampFinite(1.0 - p0 - p1, kTiny, 1.0);
  return {std::log(p0 / rest), std::log(p1 / rest)};
}

}  // namespace slim::opt
