// Derivative core hot-plug response (paper Section II.B, eqs. 2-3).
//
// The slope of the storage-node voltage is approximated at each crossing
// as dVC/dt ~ Vq / tau, where tau is the time since the previous crossing
// (eq. 3). Two gradient thresholds classify the slope:
//
//   |dVC/dt| > beta   -> scale a 'big' core   (S_b = +/-1)
//   |dVC/dt| > alpha  -> scale a 'LITTLE' core (S_L = +/-1)
//
// with beta > alpha: a violent swing justifies moving a whole A15's worth
// of power; a moderate one an A7's. Per the Fig. 5 flowchart the two
// responses are evaluated big-first and at most one core changes per
// crossing. Equivalently in tau-space (eq. 3 substituted into eq. 2):
// tau < Vq/beta -> big, else tau < Vq/alpha -> LITTLE.
#pragma once

#include "soc/core_types.hpp"
#include "soc/platform.hpp"

#include "core/dvfs_policy.hpp"

namespace pns::ctl {

/// Gradient thresholds (V/s).
struct HotplugParams {
  double alpha;  ///< LITTLE-core gradient threshold
  double beta;   ///< big-core gradient threshold (beta > alpha)
};

/// Ternary core-scaling factors of eq. 2. +1 add, -1 remove, 0 hold.
struct CoreScale {
  int s_big = 0;
  int s_little = 0;
};

/// Derivative hot-plug policy.
class DerivativeHotplugPolicy {
 public:
  explicit DerivativeHotplugPolicy(HotplugParams params);

  const HotplugParams& params() const { return params_; }

  /// Fig. 5 flowchart semantics: slope magnitude from tau (eq. 3), big
  /// checked first, at most one factor set.
  CoreScale decide(double tau_s, double v_q, ScaleDirection direction) const;

  /// Applies a CoreScale to a configuration under the platform's hot-plug
  /// limits, escalating when the preferred cluster is exhausted: a big
  /// request with no big headroom falls back to a LITTLE change and vice
  /// versa (keeps the response monotone instead of silently dropping it).
  soc::CoreConfig apply(const soc::Platform& platform,
                        const soc::CoreConfig& current,
                        const CoreScale& scale) const;

 private:
  HotplugParams params_;
};

}  // namespace pns::ctl
