#include "core/hotplug_policy.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace pns::ctl {

DerivativeHotplugPolicy::DerivativeHotplugPolicy(HotplugParams params)
    : params_(params) {
  PNS_EXPECTS(params_.alpha > 0.0);
  PNS_EXPECTS(params_.beta > params_.alpha);
}

CoreScale DerivativeHotplugPolicy::decide(double tau_s, double v_q,
                                          ScaleDirection direction) const {
  PNS_EXPECTS(v_q > 0.0);
  CoreScale s;
  if (tau_s <= 0.0) {
    // Degenerate: crossings coincide; treat as the steepest possible slope.
    s.s_big = direction == ScaleDirection::kUp ? 1 : -1;
    return s;
  }
  const double slope = v_q / tau_s;  // eq. 3 magnitude
  const int sign = direction == ScaleDirection::kUp ? 1 : -1;
  if (slope > params_.beta) {
    s.s_big = sign;  // big checked first per Fig. 5
  } else if (slope > params_.alpha) {
    s.s_little = sign;
  }
  return s;
}

soc::CoreConfig DerivativeHotplugPolicy::apply(
    const soc::Platform& platform, const soc::CoreConfig& current,
    const CoreScale& scale) const {
  soc::CoreConfig next = current;

  auto try_delta = [&](soc::CoreType type, int delta) {
    const soc::CoreConfig cand = next.with_delta(type, delta);
    if (platform.valid_cores(cand)) {
      next = cand;
      return true;
    }
    return false;
  };

  if (scale.s_big != 0) {
    if (!try_delta(soc::CoreType::kBig, scale.s_big)) {
      // Escalate: no big headroom -> move a LITTLE core the same way.
      try_delta(soc::CoreType::kLittle, scale.s_big);
    }
  }
  if (scale.s_little != 0) {
    if (!try_delta(soc::CoreType::kLittle, scale.s_little)) {
      // Escalate: LITTLE cluster exhausted -> move a big core.
      try_delta(soc::CoreType::kBig, scale.s_little);
    }
  }
  PNS_ENSURES(platform.valid_cores(next));
  return next;
}

}  // namespace pns::ctl
