#include "core/dvfs_policy.hpp"

#include "util/contracts.hpp"

namespace pns::ctl {

const char* to_string(ScaleDirection d) {
  return d == ScaleDirection::kDown ? "down" : "up";
}

std::size_t LinearDvfsPolicy::next_index(const soc::OppTable& table,
                                         std::size_t current,
                                         ScaleDirection direction) const {
  PNS_EXPECTS(current < table.size());
  return direction == ScaleDirection::kDown ? table.step_down(current)
                                            : table.step_up(current);
}

}  // namespace pns::ctl
