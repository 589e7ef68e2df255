#include "trace/irradiance.hpp"

#include <cmath>
#include <numbers>

#include "util/contracts.hpp"

namespace pns::trace {

ClearSky::ClearSky(ClearSkyParams params) : params_(params) {
  PNS_EXPECTS(params_.sunrise_s < params_.sunset_s);
  PNS_EXPECTS(params_.peak_wm2 >= 0.0);
  PNS_EXPECTS(params_.shape > 0.0);
}

double ClearSky::irradiance(double t_of_day) const {
  if (t_of_day <= params_.sunrise_s || t_of_day >= params_.sunset_s)
    return 0.0;
  const double phase = (t_of_day - params_.sunrise_s) /
                       (params_.sunset_s - params_.sunrise_s);
  const double s = std::sin(std::numbers::pi * phase);
  return params_.peak_wm2 * std::pow(s, params_.shape);
}

double ClearSky::solar_noon() const {
  return 0.5 * (params_.sunrise_s + params_.sunset_s);
}

}  // namespace pns::trace
