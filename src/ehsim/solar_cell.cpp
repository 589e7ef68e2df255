#include "ehsim/solar_cell.hpp"

#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"

namespace pns::ehsim {

SolarCell::SolarCell(SolarCellParams params) : params_(params) {
  PNS_EXPECTS(params_.i0 > 0.0);
  PNS_EXPECTS(params_.vt_eff > 0.0);
  PNS_EXPECTS(params_.rs >= 0.0);
  PNS_EXPECTS(params_.rp > 0.0);
  PNS_EXPECTS(params_.il_ref >= 0.0);
  PNS_EXPECTS(params_.g_ref > 0.0);
}

double SolarCell::photo_current(double irradiance) const {
  if (irradiance <= 0.0) return 0.0;
  return params_.il_ref * irradiance / params_.g_ref;
}

double SolarCell::current_from_photo(double v, double il) const {
  // The residual is strictly decreasing, so Newton from any point converges
  // monotonically after at most one overshoot; start at the photo-current.
  return newton_current(v, il, il);
}

double SolarCell::current_from_photo_seeded(double v, double il,
                                            double i_seed) const {
  return newton_current(v, il, i_seed);
}

double SolarCell::current_from_photo_counted(double v, double il,
                                             double i_seed,
                                             std::uint32_t* iters) const {
  return newton_current(v, il, i_seed, iters);
}

double SolarCell::newton_current(double v, double il, double i_start,
                                 std::uint32_t* iters) const {
  double i = i_start;
  for (int iter = 0; iter < kNewtonMaxIters; ++iter) {
    const double next = newton_next(params_, v, il, i);
    if (newton_converged(i, next)) {
      if (iters != nullptr) *iters = static_cast<std::uint32_t>(iter + 1);
      return next;
    }
    i = next;
  }
  if (iters != nullptr) *iters = kNewtonMaxIters;
  return i;  // best effort; residual tests bound the error
}

double SolarCell::current(double v, double irradiance) const {
  return current_from_photo(v, photo_current(irradiance));
}

double SolarCell::power(double v, double irradiance) const {
  return v * current(v, irradiance);
}

double SolarCell::short_circuit_current(double irradiance) const {
  return current(0.0, irradiance);
}

double SolarCell::open_circuit_voltage(double irradiance) const {
  const double il = photo_current(irradiance);
  if (il <= 0.0) return 0.0;
  // Analytic first guess ignoring parasitics, then bisection on I(V)=0;
  // I(V) is strictly decreasing in V so the root is unique.
  double hi = params_.vt_eff * std::log(il / params_.i0 + 1.0) * 1.05 + 0.1;
  double lo = 0.0;
  while (current_from_photo(hi, il) > 0.0) hi *= 1.5;
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-10 * (1.0 + hi); ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (current_from_photo(mid, il) > 0.0)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

MppPoint SolarCell::mpp(double irradiance) const {
  const double il = photo_current(irradiance);
  if (il <= 0.0) return {0.0, 0.0, 0.0};
  const double voc = open_circuit_voltage(irradiance);
  // Golden-section maximisation of P(V) = V * I(V) over [0, voc]; P is
  // unimodal for the single-diode model.
  const double gr = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = 0.0, b = voc;
  double c = b - gr * (b - a);
  double d = a + gr * (b - a);
  double pc = c * current_from_photo(c, il);
  double pd = d * current_from_photo(d, il);
  for (int iter = 0; iter < 200 && (b - a) > 1e-9 * (1.0 + voc); ++iter) {
    if (pc > pd) {
      b = d;
      d = c;
      pd = pc;
      c = b - gr * (b - a);
      pc = c * current_from_photo(c, il);
    } else {
      a = c;
      c = d;
      pc = pd;
      d = a + gr * (b - a);
      pd = d * current_from_photo(d, il);
    }
  }
  const double v = 0.5 * (a + b);
  const double i = current_from_photo(v, il);
  return {v, i, v * i};
}

SolarCell SolarCell::scaled_area(double factor) const {
  PNS_EXPECTS(factor > 0.0);
  SolarCellParams p = params_;
  p.i0 *= factor;
  p.il_ref *= factor;
  p.rs /= factor;
  p.rp /= factor;
  return SolarCell(p);
}

SolarCell SolarCell::calibrate(double voc, double isc, double vmpp,
                               double rs, double rp, double g_ref) {
  if (!(voc > 0.0) || !(isc > 0.0) || !(vmpp > 0.0) || vmpp >= voc)
    throw std::invalid_argument("SolarCell::calibrate: need 0 < vmpp < voc "
                                "and isc > 0");
  if (rs < 0.0 || rp <= 0.0 || g_ref <= 0.0)
    throw std::invalid_argument("SolarCell::calibrate: bad parasitics");

  // For a candidate vt: pick Il so that I(0)=isc and I0 so that I(voc)=0,
  // then check where the MPP voltage lands. Vmpp/Voc falls as vt grows
  // (softer knee), so bisection on vt is monotone.
  auto build = [&](double vt) {
    // Solve the 2x2 system by fixed point: start from the ideal-cell
    // approximations and iterate a few times.
    double il = isc * (1.0 + rs / rp);
    double i0 = 1e-9;
    for (int iter = 0; iter < 60; ++iter) {
      i0 = (il - voc / rp) / (std::exp(voc / vt) - 1.0);
      if (i0 <= 0.0) i0 = 1e-18;
      // Adjust il so short-circuit current matches isc.
      const double vd = rs * isc;
      il = isc + i0 * (std::exp(vd / vt) - 1.0) + vd / rp;
    }
    return SolarCell(SolarCellParams{i0, vt, rs, rp, il, g_ref});
  };

  double vt_lo = voc / 60.0;  // very sharp knee -> vmpp close to voc
  double vt_hi = voc / 2.0;   // very soft knee -> low vmpp
  const double target = vmpp;
  auto vmpp_of = [&](double vt) { return build(vt).mpp(g_ref).voltage; };
  if (vmpp_of(vt_lo) < target || vmpp_of(vt_hi) > target)
    throw std::invalid_argument(
        "SolarCell::calibrate: vmpp target outside achievable range for "
        "the given voc/isc/parasitics");
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (vt_lo + vt_hi);
    if (vmpp_of(mid) > target)
      vt_lo = mid;
    else
      vt_hi = mid;
  }
  return build(0.5 * (vt_lo + vt_hi));
}

}  // namespace pns::ehsim
