// Single-diode photovoltaic model (paper eq. 4) with Newton solution.
//
//   I = Il - I0*(exp((V + Rs*I)/(N*VT)) - 1) - (V + Rs*I)/Rp
//
// The implicit equation is solved for terminal current I by damped
// Newton-Raphson (the residual is strictly monotone in I so convergence is
// global). N*VT and the series cell count are lumped into one thermal
// voltage parameter `vt_eff`. Photo-current scales linearly with
// irradiance: Il(G) = il_ref * G / g_ref.
//
// Calibration: `SolarCell::calibrate` fits (i0, vt_eff, il_ref) so the
// model reproduces a measured (Voc, Isc, Vmpp) triple -- we target the IV
// curve of the paper's 1340 cm^2 monocrystalline array (Fig. 13):
// Isc ~ 1.15 A, Voc ~ 6.8 V, MPP ~ 5.4 W at 5.3 V.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>


namespace pns::ehsim {

/// Electrical parameters of the lumped single-diode model.
struct SolarCellParams {
  double i0;      ///< diode saturation current (A)
  double vt_eff;  ///< lumped N * n_series * VT (V)
  double rs;      ///< series resistance (ohm)
  double rp;      ///< parallel (shunt) resistance (ohm)
  double il_ref;  ///< photo-current at reference irradiance (A)
  double g_ref;   ///< reference irradiance (W/m^2), typically 1000
};

/// One damped Newton update of the residual of eq. 4 from current `i`:
///   F(I)  = Il - I0*(exp((V+Rs*I)/vt) - 1) - (V+Rs*I)/Rp - I
///   dF/dI = -I0*Rs/vt * exp((V+Rs*I)/vt) - Rs/Rp - 1   (always < -1)
/// F and dF/dI share one exp; the step is clamped so the exponential
/// blowing up cannot throw the iterate away. The scalar solver and the
/// batched solve (ehsim/solar_cell_simd) both iterate this one function,
/// which is what makes them bit-identical -- provided every caller is
/// compiled without FMA contraction (the pns target's PUBLIC
/// -ffp-contract=off). Keep the expressions and their association order as
/// they are: the published rk23 outputs are pinned to these bits.
inline double newton_next(const SolarCellParams& p, double v, double il,
                          double i) {
  const double vd = v + p.rs * i;
  const double e = std::exp(vd / p.vt_eff);
  const double f = il - p.i0 * (e - 1.0) - vd / p.rp - i;
  const double df = -p.i0 * p.rs / p.vt_eff * e - p.rs / p.rp - 1.0;
  double step = f / df;
  const double limit = std::max(1.0, std::abs(i)) * 10.0 + 1.0;
  if (std::abs(step) > limit) step = step > 0.0 ? limit : -limit;
  return i - step;
}

/// Convergence test of the Newton solve: the update from `i` to `next`
/// is below 1e-12 relative. Same contraction caveat as newton_next.
inline bool newton_converged(double i, double next) {
  return std::abs(next - i) < 1e-12 * (1.0 + std::abs(next));
}

/// Iteration cap of the Newton solve; a lane still moving after this
/// many updates returns its last iterate (best effort).
inline constexpr int kNewtonMaxIters = 100;

/// Maximum-power-point summary for a given irradiance.
struct MppPoint {
  double voltage;  ///< V at maximum power
  double current;  ///< A at maximum power
  double power;    ///< W at maximum power
};

/// Lumped PV cell/array. Thread-compatible: const methods are re-entrant.
class SolarCell {
 public:
  explicit SolarCell(SolarCellParams params);

  const SolarCellParams& params() const { return params_; }

  /// Photo-current for irradiance G (W/m^2); clamped at 0 for G <= 0.
  double photo_current(double irradiance) const;

  /// Terminal current at terminal voltage `v` given photo-current `il`.
  /// Negative values mean the cell is absorbing (v beyond open circuit).
  double current_from_photo(double v, double il) const;

  /// Same solve but starting Newton from `i_seed` instead of `il`. With a
  /// seed near the root this converges in 1-3 iterations; the converged
  /// value agrees with current_from_photo to the solver tolerance (~1e-12
  /// relative) but is not guaranteed bit-identical, so callers needing
  /// exact reproducibility must use current_from_photo.
  double current_from_photo_seeded(double v, double il, double i_seed) const;

  /// current_from_photo_seeded that also reports the number of Newton
  /// iterations executed (solver observability; `iters` may be null).
  /// Seeding with `il` makes it bit-identical to current_from_photo.
  double current_from_photo_counted(double v, double il, double i_seed,
                                    std::uint32_t* iters) const;

  /// Terminal current at voltage `v` under irradiance `g`.
  double current(double v, double irradiance) const;

  /// Terminal power P = V*I at voltage `v` under irradiance `g`.
  double power(double v, double irradiance) const;

  /// Short-circuit current under irradiance `g`.
  double short_circuit_current(double irradiance) const;

  /// Open-circuit voltage under irradiance `g` (0 when dark).
  double open_circuit_voltage(double irradiance) const;

  /// Maximum power point under irradiance `g` (golden-section search).
  MppPoint mpp(double irradiance) const;

  /// Returns an electrically equivalent array scaled in area by `factor`
  /// (currents scale up, resistances scale down).
  SolarCell scaled_area(double factor) const;

  /// Fits (i0, vt_eff, il_ref) so that at `g_ref` the model achieves the
  /// given open-circuit voltage, short-circuit current and MPP voltage,
  /// with the supplied parasitics. Throws std::invalid_argument when the
  /// targets are inconsistent (e.g. vmpp >= voc).
  static SolarCell calibrate(double voc, double isc, double vmpp,
                             double rs = 0.3, double rp = 200.0,
                             double g_ref = 1000.0);

 private:
  /// Damped Newton on the implicit diode equation from `i_start`.
  /// `iters` (optional) receives the number of iterations executed.
  double newton_current(double v, double il, double i_start,
                        std::uint32_t* iters = nullptr) const;

  SolarCellParams params_;
};

}  // namespace pns::ehsim
