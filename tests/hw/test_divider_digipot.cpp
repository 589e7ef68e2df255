// Tests for the divider and digipot models (hw/divider, hw/digipot).
#include <gtest/gtest.h>

#include "hw/digipot.hpp"
#include "hw/divider.hpp"
#include "util/contracts.hpp"

namespace pns::hw {
namespace {

TEST(PotentialDivider, RatioAndOutput) {
  PotentialDivider d{470e3, 100e3};
  EXPECT_NEAR(d.ratio(), 100.0 / 570.0, 1e-12);
  EXPECT_NEAR(d.output(5.7), 1.0, 1e-12);
}

TEST(PotentialDivider, InverseConsistent) {
  PotentialDivider d{470e3, 52e3};
  for (double v : {4.1, 5.0, 5.7}) {
    EXPECT_NEAR(d.input_for_output(d.output(v)), v, 1e-9);
  }
}

TEST(PotentialDivider, ContractOnNonPositiveResistors) {
  PotentialDivider d{0.0, 100e3};
  EXPECT_THROW(d.ratio(), pns::ContractViolation);
}

TEST(Mcp4131, CodeRangeClamped) {
  Mcp4131 pot(20e3);
  EXPECT_EQ(pot.set_code(-5), 0);
  EXPECT_EQ(pot.set_code(500), 128);
  EXPECT_EQ(pot.set_code(64), 64);
}

TEST(Mcp4131, ResistanceEndpoints) {
  Mcp4131 pot(20e3, 75.0);
  pot.set_code(0);
  EXPECT_NEAR(pot.resistance(), 75.0, 1e-9);
  pot.set_code(128);
  EXPECT_NEAR(pot.resistance(), 20075.0, 1e-9);
}

TEST(Mcp4131, ResistanceMonotoneInCode) {
  Mcp4131 pot(10e3);
  double prev = -1.0;
  for (int c = 0; c < Mcp4131::kSteps; ++c) {
    const double r = pot.resistance_at(c);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(Mcp4131, ProgramTimeScalesWithSpiClock) {
  Mcp4131 pot(10e3);
  EXPECT_NEAR(pot.program_time_s(1e6), 20e-6, 1e-12);
  EXPECT_NEAR(pot.program_time_s(10e6), 2e-6, 1e-12);
  EXPECT_THROW(pot.program_time_s(0.0), pns::ContractViolation);
}

TEST(Mcp4131, WritesCounted) {
  Mcp4131 pot(10e3);
  EXPECT_EQ(pot.writes(), 0u);
  pot.set_code(3);
  pot.set_code(4);
  EXPECT_EQ(pot.writes(), 2u);
}

TEST(Mcp4131, ConstructionContracts) {
  EXPECT_THROW(Mcp4131(0.0), pns::ContractViolation);
  EXPECT_THROW(Mcp4131(10e3, -1.0), pns::ContractViolation);
}

}  // namespace
}  // namespace pns::hw
