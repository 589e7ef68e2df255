#include "hw/monitor.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace pns::hw {

ThresholdChannel::ThresholdChannel(ChannelNetwork network,
                                   ComparatorParams comparator)
    : net_(network), pot_(network.pot_full_scale, network.pot_wiper),
      comp_(comparator) {
  PNS_EXPECTS(net_.r_top > 0.0);
  PNS_EXPECTS(net_.r_bottom_fixed > 0.0);
  PNS_EXPECTS(net_.pot_full_scale > 0.0);
  for (int c = 0; c < Mcp4131::kSteps; ++c)
    threshold_table_[c] = divider_at(c).input_for_output(comp_.params().v_ref);
  refresh_code_cache();
}

void ThresholdChannel::refresh_code_cache() {
  const PotentialDivider div = divider_at(pot_.code());
  ratio_ = div.ratio();
  rising_trip_node_ = div.input_for_output(comp_.rising_trip());
  falling_trip_node_ = div.input_for_output(comp_.falling_trip());
}

PotentialDivider ThresholdChannel::divider_at(int c) const {
  return PotentialDivider{net_.r_top,
                          net_.r_bottom_fixed + pot_.resistance_at(c)};
}

double ThresholdChannel::threshold_for_code(int c) const {
  // The comparator trips when the tap reaches v_ref, i.e. when the node is
  // at v_ref / ratio(code). Larger bottom resistance -> lower threshold.
  if (c >= 0 && c < Mcp4131::kSteps) return threshold_table_[c];
  return divider_at(c).input_for_output(comp_.params().v_ref);
}

double ThresholdChannel::min_threshold() const {
  return threshold_for_code(Mcp4131::kSteps - 1);
}

double ThresholdChannel::max_threshold() const {
  return threshold_for_code(0);
}

double ThresholdChannel::set_threshold(double v_target, double v_node_now) {
  // threshold_for_code is monotone decreasing in the code; scan for the
  // nearest achievable value (129 candidates -- cheap and exact). Repeat
  // targets answer from the memo without rescanning.
  int best = -1;
  for (const CodeMemo& m : code_memo_) {
    if (m.code >= 0 && m.v_target == v_target) {
      best = m.code;
      break;
    }
  }
  if (best < 0) {
    best = 0;
    double best_err = std::abs(threshold_for_code(0) - v_target);
    for (int c = 1; c < Mcp4131::kSteps; ++c) {
      const double err = std::abs(threshold_for_code(c) - v_target);
      if (err < best_err) {
        best = c;
        best_err = err;
      }
    }
    code_memo_[code_memo_next_] = {v_target, best};
    code_memo_next_ = (code_memo_next_ + 1) % code_memo_.size();
  }
  pot_.set_code(best);
  refresh_code_cache();
  // Reseed the comparator so the programming step cannot self-trigger.
  comp_.reset(v_node_now > threshold());
  return threshold();
}

double ThresholdChannel::threshold() const {
  return threshold_for_code(pot_.code());
}

bool ThresholdChannel::sample(double v_node) {
  return comp_.update(v_node * ratio_);
}

double ThresholdChannel::node_rising_trip() const { return rising_trip_node_; }

double ThresholdChannel::node_falling_trip() const {
  return falling_trip_node_;
}

const char* to_string(MonitorEdge e) {
  switch (e) {
    case MonitorEdge::kLowFalling:
      return "low-falling";
    case MonitorEdge::kLowRising:
      return "low-rising";
    case MonitorEdge::kHighRising:
      return "high-rising";
    case MonitorEdge::kHighFalling:
      return "high-falling";
  }
  return "?";
}

VoltageMonitor::VoltageMonitor(ChannelNetwork network,
                               ComparatorParams comparator)
    : low_(network, comparator), high_(network, comparator) {}

std::pair<double, double> VoltageMonitor::set_thresholds(double v_low,
                                                         double v_high,
                                                         double v_node_now) {
  PNS_EXPECTS(v_low < v_high);
  const double lo = low_.set_threshold(v_low, v_node_now);
  const double hi = high_.set_threshold(v_high, v_node_now);
  return {lo, hi};
}

double VoltageMonitor::low_threshold() const { return low_.threshold(); }
double VoltageMonitor::high_threshold() const { return high_.threshold(); }

std::optional<MonitorEdge> VoltageMonitor::sample(double v_node) {
  const bool low_before = low_.output();
  const bool high_before = high_.output();
  const bool low_after = low_.sample(v_node);
  const bool high_after = high_.sample(v_node);
  if (low_before && !low_after) return MonitorEdge::kLowFalling;
  if (!low_before && low_after) return MonitorEdge::kLowRising;
  if (!high_before && high_after) return MonitorEdge::kHighRising;
  if (high_before && !high_after) return MonitorEdge::kHighFalling;
  return std::nullopt;
}

}  // namespace pns::hw
