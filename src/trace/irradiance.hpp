// Clear-sky irradiance envelope ("macro" variability of Fig. 1).
//
// The diurnal envelope is the slowly varying component of harvested power:
// zero before sunrise, a sine-power bell through the day, zero after
// sunset. Stochastic weather (weather.hpp) multiplies this envelope by a
// transmittance process to produce the "micro" variability.
#pragma once

namespace pns::trace {

/// Parameters of the diurnal clear-sky bell curve.
struct ClearSkyParams {
  double sunrise_s = 6.0 * 3600.0;   ///< seconds since midnight
  double sunset_s = 20.0 * 3600.0;   ///< seconds since midnight
  double peak_wm2 = 1000.0;          ///< zenith irradiance (W/m^2)
  /// Shape exponent: 1 = pure sine; >1 narrows the bell (atmospheric
  /// air-mass losses near the horizon). 1.2 matches the gentle shoulders
  /// of the measured day in Fig. 1.
  double shape = 1.2;
};

/// Deterministic clear-sky irradiance model.
class ClearSky {
 public:
  explicit ClearSky(ClearSkyParams params = {});

  const ClearSkyParams& params() const { return params_; }

  /// Irradiance (W/m^2) at time-of-day t (seconds since midnight).
  /// Zero outside [sunrise, sunset].
  double irradiance(double t_of_day) const;

  /// Time of solar noon (seconds since midnight).
  double solar_noon() const;

 private:
  ClearSkyParams params_;
};

}  // namespace pns::trace
