#include "ehsim/fixed_step.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace pns::ehsim {

void integrate_rk4(const OdeSystem& system, double t0, std::span<double> y0,
                   double t_end, double h) {
  PNS_EXPECTS(h > 0.0);
  PNS_EXPECTS(t_end >= t0);
  PNS_EXPECTS(y0.size() == system.dimension());
  const std::size_t n = y0.size();
  std::vector<double> k1(n), k2(n), k3(n), k4(n), tmp(n);
  double t = t0;
  while (t < t_end) {
    const double step = std::min(h, t_end - t);
    system.derivatives(t, y0, std::span<double>(k1));
    for (std::size_t i = 0; i < n; ++i) tmp[i] = y0[i] + 0.5 * step * k1[i];
    system.derivatives(t + 0.5 * step, tmp, std::span<double>(k2));
    for (std::size_t i = 0; i < n; ++i) tmp[i] = y0[i] + 0.5 * step * k2[i];
    system.derivatives(t + 0.5 * step, tmp, std::span<double>(k3));
    for (std::size_t i = 0; i < n; ++i) tmp[i] = y0[i] + step * k3[i];
    system.derivatives(t + step, tmp, std::span<double>(k4));
    for (std::size_t i = 0; i < n; ++i)
      y0[i] += step / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    t += step;
  }
}

}  // namespace pns::ehsim
