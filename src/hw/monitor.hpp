// Two-channel interrupt-generating voltage monitor (Fig. 9 of the paper).
//
// Each channel is: node voltage -> potential divider whose bottom leg
// includes an MCP4131 digipot -> LT6703 comparator against its 400 mV
// internal reference -> MOSFET level shifter -> GPIO interrupt. The
// processor programs the digipot over SPI to place the threshold.
//
// Because the wiper has 129 positions, thresholds are quantised; the
// channel exposes both the requested and the actually achieved threshold,
// and the controller works with the achieved one (as real firmware must).
// The measured power of the complete two-channel monitor in the paper is
// 1.61 mW; we expose that as the monitor's load on the storage node.
#pragma once

#include <array>
#include <optional>
#include <utility>

#include "hw/comparator.hpp"
#include "hw/digipot.hpp"
#include "hw/divider.hpp"

namespace pns::hw {

/// Resistor network values of one threshold channel. Defaults give a
/// programmable threshold window of roughly 4.0-6.0 V with ~15 mV steps,
/// bracketing the ODROID XU4's 4.1-5.7 V operating range.
struct ChannelNetwork {
  double r_top = 470.0e3;    ///< fixed top resistor (Fig. 9: 470 k)
  double r_bottom_fixed = 33.0e3;  ///< fixed part of the bottom leg
  double pot_full_scale = 20.0e3;  ///< MCP4131 span in the bottom leg
  double pot_wiper = 75.0;         ///< wiper resistance
};

/// One programmable threshold comparator channel.
class ThresholdChannel {
 public:
  explicit ThresholdChannel(ChannelNetwork network = {},
                            ComparatorParams comparator = {});

  /// Lowest / highest achievable threshold (V) given the network.
  double min_threshold() const;
  double max_threshold() const;

  /// Threshold (V) that wiper code `c` would produce.
  double threshold_for_code(int c) const;

  /// Programs the channel to the achievable threshold nearest to
  /// `v_target`; returns the achieved threshold. Also reseeds the
  /// comparator state from `v_node_now` so reprogramming does not itself
  /// fire an edge.
  double set_threshold(double v_target, double v_node_now);

  /// Currently programmed threshold (V).
  double threshold() const;

  /// Programmed wiper code.
  int code() const { return pot_.code(); }

  /// Presents the node voltage; returns the comparator output (true =
  /// node above threshold).
  bool sample(double v_node);

  bool output() const { return comp_.output(); }

  /// Node voltage at which the comparator output flips high (rising
  /// hysteresis trip mapped back through the divider).
  double node_rising_trip() const;

  /// Node voltage at which the comparator output flips low.
  double node_falling_trip() const;

  /// SPI programming latency for one threshold move (s).
  double program_time() const { return pot_.program_time_s(); }

 private:
  /// Effective divider at wiper code `c`.
  PotentialDivider divider_at(int c) const;

  /// Recomputes the per-code derived values after the wiper moves. The
  /// cached numbers are produced by exactly the expressions the accessors
  /// used to evaluate, so every read stays bit-identical.
  void refresh_code_cache();

  ChannelNetwork net_;
  Mcp4131 pot_;
  Comparator comp_;
  /// threshold_for_code for every wiper code, computed once at build.
  std::array<double, Mcp4131::kSteps> threshold_table_{};
  /// Recent target -> nearest-code memo. The controller re-arms from a
  /// handful of quantised targets thousands of times per simulated hour;
  /// the memo answers those without rescanning the 129-code table (the
  /// table is immutable, so entries never go stale).
  struct CodeMemo {
    double v_target = 0.0;
    int code = -1;
  };
  std::array<CodeMemo, 4> code_memo_{};
  std::size_t code_memo_next_ = 0;
  double ratio_ = 0.0;             ///< divider gain at the current code
  double rising_trip_node_ = 0.0;  ///< node-referred comparator trips
  double falling_trip_node_ = 0.0;
};

/// Edge kinds reported by the monitor.
enum class MonitorEdge {
  kLowFalling,   ///< node fell through the LOW threshold
  kLowRising,    ///< node rose back through the LOW threshold
  kHighRising,   ///< node rose through the HIGH threshold
  kHighFalling,  ///< node fell back through the HIGH threshold
};

const char* to_string(MonitorEdge e);

/// The complete two-channel monitor of Fig. 9.
class VoltageMonitor {
 public:
  /// Measured supply draw of the full monitoring circuit (paper: 1.61 mW).
  static constexpr double kPowerW = 1.61e-3;

  explicit VoltageMonitor(ChannelNetwork network = {},
                          ComparatorParams comparator = {});

  /// Programs both thresholds (vlow < vhigh required); returns the
  /// achieved (quantised) pair {low, high}.
  std::pair<double, double> set_thresholds(double v_low, double v_high,
                                           double v_node_now);

  double low_threshold() const;
  double high_threshold() const;

  /// Samples the node voltage; returns at most one edge (low-channel edges
  /// take priority -- the falling threshold is the safety-critical one).
  std::optional<MonitorEdge> sample(double v_node);

  const ThresholdChannel& low_channel() const { return low_; }
  const ThresholdChannel& high_channel() const { return high_; }

 private:
  ThresholdChannel low_;
  ThresholdChannel high_;
};

}  // namespace pns::hw
