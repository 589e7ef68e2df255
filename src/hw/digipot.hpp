// MCP4131 SPI digital potentiometer model.
//
// The paper's monitoring circuit (Fig. 9) uses an MCP4131 in the bottom
// leg of the divider so the processor can move the comparator threshold.
// The MCP4131 has 129 wiper positions (7-bit + full scale); we model the
// programmed resistance, the quantisation that imposes on thresholds, and
// the SPI programming latency the controller pays when it shifts a
// threshold.
#pragma once

#include <cstdint>

namespace pns::hw {

/// One MCP4131 rheostat (wiper-to-terminal connection).
class Mcp4131 {
 public:
  static constexpr int kSteps = 129;  ///< wiper codes 0..128

  /// `r_full_scale` is the end-to-end resistance (e.g. 10 k / 50 k / 100 k
  /// variants); `r_wiper` the parasitic wiper resistance (~75 ohm).
  explicit Mcp4131(double r_full_scale, double r_wiper = 75.0);

  /// Programmed wiper code (0..128).
  int code() const { return code_; }

  /// Programs the wiper; clamps into [0, 128]. Returns the clamped code.
  int set_code(int code);

  /// Resistance between wiper and the active terminal at the current code.
  double resistance() const;

  /// Resistance at an arbitrary code (no state change).
  double resistance_at(int code) const;

  /// Time to clock one 16-bit SPI command at `spi_hz` (default 1 MHz).
  double program_time_s(double spi_hz = 1.0e6) const;

  /// Total writes performed (wear/diagnostics).
  std::uint64_t writes() const { return writes_; }

 private:
  double r_full_scale_;
  double r_wiper_;
  int code_ = 64;
  std::uint64_t writes_ = 0;
};

}  // namespace pns::hw
