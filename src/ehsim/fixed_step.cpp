#include "ehsim/fixed_step.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace pns::ehsim {

double integrate_rk4(const OdeSystem& system, double t0, double y0,
                     double t_end, double h) {
  PNS_EXPECTS(h > 0.0);
  PNS_EXPECTS(t_end >= t0);
  double t = t0;
  double y = y0;
  while (t < t_end) {
    const double step = std::min(h, t_end - t);
    const double k1 = system.derivative(t, y);
    const double k2 = system.derivative(t + 0.5 * step, y + 0.5 * step * k1);
    const double k3 = system.derivative(t + 0.5 * step, y + 0.5 * step * k2);
    const double k4 = system.derivative(t + step, y + step * k3);
    y += step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    t += step;
  }
  return y;
}

}  // namespace pns::ehsim
