#include "soc/transition.hpp"

#include <algorithm>

#include "soc/platform.hpp"
#include "util/contracts.hpp"

namespace pns::soc {

const char* to_string(OrderingPolicy policy) {
  return policy == OrderingPolicy::kCoreFirst ? "core-first" : "freq-first";
}

TransitionPlanner::TransitionPlanner(const OppTable& table,
                                     const PowerModel& power,
                                     const LatencyModel& latency)
    : table_(&table), power_(&power), latency_(&latency) {}

TransitionPlanner::TransitionPlanner(const Platform& platform)
    : table_(&platform.opps),
      power_(&platform.power),
      latency_(&platform.latency),
      platform_(&platform) {}

TransitionStep TransitionPlanner::make_step(TransitionKind kind,
                                            const OperatingPoint& from,
                                            const OperatingPoint& to,
                                            double duration,
                                            double utilization) const {
  const double p_from = platform_
                            ? platform_->board_power(from, utilization)
                            : power_->board_power(from, *table_, utilization);
  const double p_to = platform_
                          ? platform_->board_power(to, utilization)
                          : power_->board_power(to, *table_, utilization);
  double p = std::max(p_from, p_to);
  if (kind == TransitionKind::kHotplug)
    p += latency_->params().hotplug_power_overhead_w;
  return {kind, from, to, duration, p};
}

void TransitionPlanner::plan_core_phase(std::vector<TransitionStep>& out,
                                        OperatingPoint& cur,
                                        const CoreConfig& target,
                                        double utilization) const {
  const double f = table_->frequency(cur.freq_index);
  auto hotplug_one = [&](CoreType type, bool adding) {
    OperatingPoint next = cur;
    next.cores = cur.cores.with_delta(type, adding ? +1 : -1);
    const double dt =
        latency_->hotplug_latency(type, adding, f, cur.cores);
    out.push_back(
        make_step(TransitionKind::kHotplug, cur, next, dt, utilization));
    cur = next;
  };
  // Shrinking: retire expensive big cores first. Growing: bring cheap
  // LITTLE capacity online first.
  while (cur.cores.n_big > target.n_big) hotplug_one(CoreType::kBig, false);
  while (cur.cores.n_little > target.n_little)
    hotplug_one(CoreType::kLittle, false);
  while (cur.cores.n_little < target.n_little)
    hotplug_one(CoreType::kLittle, true);
  while (cur.cores.n_big < target.n_big) hotplug_one(CoreType::kBig, true);
}

void TransitionPlanner::plan_freq_phase(std::vector<TransitionStep>& out,
                                        OperatingPoint& cur,
                                        std::size_t target_index,
                                        double utilization) const {
  while (cur.freq_index != target_index) {
    OperatingPoint next = cur;
    next.freq_index = target_index > cur.freq_index
                          ? table_->step_up(cur.freq_index)
                          : table_->step_down(cur.freq_index);
    const double dt = latency_->dvfs_latency(
        table_->frequency(cur.freq_index),
        table_->frequency(next.freq_index), cur.cores.total());
    out.push_back(
        make_step(TransitionKind::kDvfs, cur, next, dt, utilization));
    cur = next;
  }
}

std::vector<TransitionStep> TransitionPlanner::plan(
    const OperatingPoint& from, const OperatingPoint& to,
    OrderingPolicy policy, double utilization) const {
  PNS_EXPECTS(from.freq_index < table_->size());
  PNS_EXPECTS(to.freq_index < table_->size());
  PNS_EXPECTS(to.cores.n_little >= 0 && to.cores.n_big >= 0);
  std::vector<TransitionStep> out;
  OperatingPoint cur = from;
  if (policy == OrderingPolicy::kCoreFirst) {
    plan_core_phase(out, cur, to.cores, utilization);
    plan_freq_phase(out, cur, to.freq_index, utilization);
  } else {
    plan_freq_phase(out, cur, to.freq_index, utilization);
    plan_core_phase(out, cur, to.cores, utilization);
  }
  PNS_ENSURES(cur == to);
  return out;
}

std::vector<TransitionStep> TransitionPlanner::plan_dvfs_jump(
    const OperatingPoint& from, std::size_t to_index,
    double utilization) const {
  PNS_EXPECTS(to_index < table_->size());
  if (to_index == from.freq_index) return {};
  OperatingPoint to = from;
  to.freq_index = to_index;
  const double dt = latency_->dvfs_latency(
      table_->frequency(from.freq_index), table_->frequency(to_index),
      from.cores.total());
  return {make_step(TransitionKind::kDvfs, from, to, dt, utilization)};
}

double TransitionPlanner::total_duration(
    const std::vector<TransitionStep>& steps) {
  double t = 0.0;
  for (const auto& s : steps) t += s.duration_s;
  return t;
}

double TransitionPlanner::total_charge(
    const std::vector<TransitionStep>& steps, double v_node) {
  PNS_EXPECTS(v_node > 0.0);
  double q = 0.0;
  for (const auto& s : steps) q += s.power_w * s.duration_s / v_node;
  return q;
}

}  // namespace pns::soc
