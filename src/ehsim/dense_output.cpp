#include "ehsim/dense_output.hpp"

#include <algorithm>
#include <cmath>

namespace pns::ehsim {

HermiteCubic HermiteCubic::from_step(double h, double y0, double y1,
                                     double f0, double f1) {
  // Expansion of the Hermite basis h00/h10/h01/h11 in s = (t - t0)/h,
  // with the derivative terms scaled by h (chain rule).
  HermiteCubic c;
  const double hf0 = h * f0;
  const double hf1 = h * f1;
  c.c0 = y0;
  c.c1 = hf0;
  c.c2 = -3.0 * y0 + 3.0 * y1 - 2.0 * hf0 - hf1;
  c.c3 = 2.0 * y0 - 2.0 * y1 + hf0 + hf1;
  return c;
}

namespace {

/// Refines the single root of g(s) = cubic(s) - level inside the
/// monotone bracket [lo, hi] (g changes sign across it) with Newton
/// iterations safeguarded by bisection. Deterministic; ~3-6 iterations
/// for the smooth cubics dense output produces.
double refine_root(const HermiteCubic& cubic, double level, double lo,
                   double hi, double g_lo, double s_tol) {
  double s = 0.5 * (lo + hi);
  for (int it = 0; it < 64 && (hi - lo) > s_tol; ++it) {
    const double g = cubic.eval(s) - level;
    // Shrink the bracket around the root.
    if ((g_lo < 0.0) == (g < 0.0)) {
      lo = s;
      g_lo = g;
    } else {
      hi = s;
    }
    const double d = (3.0 * cubic.c3 * s + 2.0 * cubic.c2) * s + cubic.c1;
    double next = d != 0.0 ? s - g / d : lo;
    // Newton step outside the bracket (or stalled): bisect instead.
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    s = next;
  }
  return hi;  // first point at/after the sign change, as bisection returns
}

}  // namespace

CrossingResult earliest_crossing(const HermiteCubic& cubic, double level,
                                 EventDirection direction, double s_tol) {
  // Split [0, 1] at the cubic's critical points (roots of the derivative
  // quadratic): each piece is monotone and holds at most one crossing, so
  // scanning pieces in order yields the earliest root.
  double brk[4] = {0.0, 1.0, 1.0, 1.0};
  int n_brk = 1;
  const double a = 3.0 * cubic.c3, b = 2.0 * cubic.c2, c = cubic.c1;
  if (a != 0.0) {
    const double disc = b * b - 4.0 * a * c;
    if (disc > 0.0) {
      const double sq = std::sqrt(disc);
      // Stable quadratic roots (avoid cancellation on the small root).
      const double q = -0.5 * (b + std::copysign(sq, b));
      double r1 = q / a;
      double r2 = c != 0.0 && q != 0.0 ? c / q : r1;
      if (r1 > r2) std::swap(r1, r2);
      if (r1 > 0.0 && r1 < 1.0) brk[n_brk++] = r1;
      if (r2 > r1 && r2 > 0.0 && r2 < 1.0) brk[n_brk++] = r2;
    }
  } else if (b != 0.0) {
    const double r = -c / b;
    if (r > 0.0 && r < 1.0) brk[n_brk++] = r;
  }
  brk[n_brk++] = 1.0;

  CrossingResult result;
  double g_lo = cubic.eval(0.0) - level;
  for (int i = 0; i + 1 < n_brk; ++i) {
    const double hi = brk[i + 1];
    const double g_hi = cubic.eval(hi) - level;
    if (event_direction_matches(direction, g_lo, g_hi)) {
      result.found = true;
      result.s = refine_root(cubic, level, brk[i], hi, g_lo,
                             std::max(s_tol, 0.0));
      return result;
    }
    g_lo = g_hi;
  }
  return result;
}

}  // namespace pns::ehsim
