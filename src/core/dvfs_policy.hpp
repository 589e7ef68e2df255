// Linear DVFS response (paper Section II.B, first stage of Fig. 5).
//
// On every threshold crossing the operating frequency moves exactly one
// level along the predefined ladder: down on a LOW crossing, up on a HIGH
// crossing. This first-order ("linear control") response absorbs the
// 'micro' variability of the harvest; the derivative hot-plug policy
// handles the 'macro' component.
#pragma once

#include <cstddef>

#include "soc/opp.hpp"

namespace pns::ctl {

/// Direction of a control response.
enum class ScaleDirection {
  kDown,  ///< LOW threshold crossed: shed power
  kUp,    ///< HIGH threshold crossed: absorb surplus
};

const char* to_string(ScaleDirection d);

/// One-ladder-step frequency policy.
class LinearDvfsPolicy {
 public:
  /// Next frequency index after a crossing (saturates at ladder ends).
  std::size_t next_index(const soc::OppTable& table, std::size_t current,
                         ScaleDirection direction) const;
};

}  // namespace pns::ctl
