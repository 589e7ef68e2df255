#include "hw/digipot.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace pns::hw {

Mcp4131::Mcp4131(double r_full_scale, double r_wiper)
    : r_full_scale_(r_full_scale), r_wiper_(r_wiper) {
  PNS_EXPECTS(r_full_scale > 0.0);
  PNS_EXPECTS(r_wiper >= 0.0);
}

int Mcp4131::set_code(int code) {
  code_ = std::clamp(code, 0, kSteps - 1);
  ++writes_;
  return code_;
}

double Mcp4131::resistance() const { return resistance_at(code_); }

double Mcp4131::resistance_at(int code) const {
  const int c = std::clamp(code, 0, kSteps - 1);
  return r_wiper_ +
         r_full_scale_ * static_cast<double>(c) /
             static_cast<double>(kSteps - 1);
}

double Mcp4131::program_time_s(double spi_hz) const {
  PNS_EXPECTS(spi_hz > 0.0);
  // One command = 16 SPI clocks plus chip-select framing (~4 clocks).
  return 20.0 / spi_hz;
}

}  // namespace pns::hw
