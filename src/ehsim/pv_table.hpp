// Precomputed I(V, G) table for the single-diode PV model.
//
// The Newton solve in SolarCell::current is exact but costs a handful of
// exp() evaluations per call, and the co-simulation loop calls it three
// times per RK23 step. For design-space sweeps where a bounded (and
// measured) current error is acceptable, PvTable trades the solve for a
// bilinear interpolation over a uniform (V, G) grid: the grid is filled
// with exact Newton solutions at construction, and the worst-case
// interpolation error is then *measured* by probing every cell midpoint
// against the exact model, so callers can assert on it rather than trust
// an analytic estimate.
//
// Outside the tabulated rectangle ([0, v_max] x [0, g_max]) the table
// refuses to answer (covers() is false) and callers fall back to the exact
// solve -- see PvSource.
#pragma once

#include <cstddef>
#include <vector>

#include "ehsim/solar_cell.hpp"

namespace pns::ehsim {

/// Grid extents and resolution of a PvTable. Defaults suit the paper's
/// array (Voc ~ 6.8 V) under up to 1.2x reference irradiance.
struct PvTableSpec {
  double v_max = 0.0;    ///< 0 = auto: 1.02 x Voc at g_max
  double g_max = 1200.0; ///< W/m^2
  std::size_t nv = 257;  ///< voltage knots (>= 2)
  std::size_t ng = 49;   ///< irradiance knots (>= 2)
};

/// Immutable bilinear I(V, G) interpolant built from a SolarCell.
class PvTable {
 public:
  PvTable(const SolarCell& cell, PvTableSpec spec = {});

  /// True when (v, g) lies inside the tabulated rectangle.
  bool covers(double v, double g) const {
    return v >= 0.0 && v <= v_max_ && g >= 0.0 && g <= g_max_;
  }

  /// Bilinear terminal current (A). Precondition: covers(v, g).
  double current(double v, double g) const;

  /// Worst |I_table - I_newton| (A) measured at every cell midpoint of
  /// the grid during construction.
  double max_abs_error_a() const { return max_abs_error_; }

  double v_max() const { return v_max_; }
  double g_max() const { return g_max_; }
  std::size_t nv() const { return nv_; }
  std::size_t ng() const { return ng_; }

 private:
  double v_max_, g_max_;
  double dv_, dg_;
  std::size_t nv_, ng_;
  std::vector<double> i_;  // row-major [gi * nv_ + vi]
  double max_abs_error_ = 0.0;
};

}  // namespace pns::ehsim
