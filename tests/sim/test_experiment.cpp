// Tests for the experiment scenario helpers (sim/experiment).
#include "sim/experiment.hpp"

#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pns::sim {
namespace {

const soc::Platform& xu4() {
  static soc::Platform p = soc::Platform::odroid_xu4();
  return p;
}

TEST(PaperPvArray, MatchesFig13Anchors) {
  auto cell = paper_pv_array();
  EXPECT_NEAR(cell.open_circuit_voltage(1000.0), 6.8, 0.05);
  EXPECT_NEAR(cell.short_circuit_current(1000.0), 1.15, 0.02);
  EXPECT_NEAR(cell.mpp(1000.0).voltage, 5.3, 0.05);
}

TEST(Fig1PvCell, AreaScaledDown) {
  auto big = paper_pv_array();
  auto small = fig1_pv_cell();
  EXPECT_NEAR(small.mpp(1000.0).power / big.mpp(1000.0).power,
              250.0 / 1340.0, 0.01);
}

bool same_params(const ehsim::SolarCellParams& a,
                 const ehsim::SolarCellParams& b) {
  return a.i0 == b.i0 && a.vt_eff == b.vt_eff && a.rs == b.rs &&
         a.rp == b.rp && a.il_ref == b.il_ref && a.g_ref == b.g_ref;
}

void expect_same_params(const ehsim::SolarCellParams& a,
                        const ehsim::SolarCellParams& b) {
  EXPECT_EQ(a.i0, b.i0);
  EXPECT_EQ(a.vt_eff, b.vt_eff);
  EXPECT_EQ(a.rs, b.rs);
  EXPECT_EQ(a.rp, b.rp);
  EXPECT_EQ(a.il_ref, b.il_ref);
  EXPECT_EQ(a.g_ref, b.g_ref);
}

TEST(PaperPvArray, CalibratedOnceBitIdenticalToFreshCalibration) {
  const ehsim::SolarCell fresh =
      ehsim::SolarCell::calibrate(6.8, 1.15, 5.3, 0.30, 200.0);

  // Earlier tests in this binary have already made the first call, so
  // the racing first call runs in a child: the threadsafe death-test
  // style re-executes the binary for this test alone.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        std::vector<ehsim::SolarCellParams> seen(4);
        std::vector<std::thread> threads;
        for (std::size_t k = 0; k < seen.size(); ++k)
          threads.emplace_back(
              [&seen, k] { seen[k] = paper_pv_array().params(); });
        for (auto& t : threads) t.join();
        bool all_same = true;
        for (const auto& p : seen) all_same &= same_params(p, fresh.params());
        std::exit(all_same ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");

  expect_same_params(paper_pv_array().params(), fresh.params());
  expect_same_params(fig1_pv_cell().params(),
                     fresh.scaled_area(250.0 / 1340.0).params());
}

TEST(PaperClearSky, DaylightWindow) {
  auto sky = paper_clear_sky();
  EXPECT_DOUBLE_EQ(sky.irradiance(4.0 * 3600.0), 0.0);
  EXPECT_GT(sky.irradiance(13.0 * 3600.0), 900.0);
}

TEST(SolarSimConfig, MatchesPaperSetup) {
  SolarScenario scenario;
  const auto cfg = solar_sim_config(scenario);
  EXPECT_DOUBLE_EQ(cfg.capacitance_f, 47e-3);  // the paper's buffer
  EXPECT_DOUBLE_EQ(cfg.v_target, 5.3);         // calibrated MPP
  EXPECT_DOUBLE_EQ(cfg.band_fraction, 0.05);
  EXPECT_DOUBLE_EQ(cfg.t_start, scenario.t_start);
}

TEST(RunSolarPowerNeutral, ShortFullSunRunStaysAlive) {
  SolarScenario scenario;
  scenario.t_start = 12.0 * 3600.0;
  scenario.t_end = scenario.t_start + 120.0;
  auto cfg = solar_sim_config(scenario);
  const auto r = run_solar_power_neutral(xu4(), scenario, cfg);
  EXPECT_EQ(r.metrics.brownouts, 0u);
  EXPECT_TRUE(r.used_controller);
  EXPECT_GT(r.metrics.instructions, 0.0);
  EXPECT_GT(r.metrics.fraction_in_band(), 0.2);
}

TEST(RunSolarGovernor, PowersaveRunsConservativeDies) {
  SolarScenario scenario;
  scenario.t_start = 12.0 * 3600.0;
  scenario.t_end = scenario.t_start + 90.0;
  auto cfg = solar_sim_config(scenario);
  cfg.enable_reboot = false;

  const auto powersave =
      run_solar_governor(xu4(), scenario, "powersave", cfg);
  EXPECT_EQ(powersave.metrics.brownouts, 0u);

  const auto conservative =
      run_solar_governor(xu4(), scenario, "conservative", cfg);
  EXPECT_GE(conservative.metrics.brownouts, 1u);
  // Table II: conservative dies within seconds of ramping up.
  EXPECT_LT(conservative.metrics.lifetime_s, 30.0);
}

TEST(RunSolarStatic, LowOppSurvivesNoon) {
  SolarScenario scenario;
  scenario.t_start = 12.0 * 3600.0;
  scenario.t_end = scenario.t_start + 60.0;
  auto cfg = solar_sim_config(scenario);
  const auto r =
      run_solar_static(xu4(), scenario, xu4().lowest_opp(), cfg);
  EXPECT_EQ(r.metrics.brownouts, 0u);
  EXPECT_EQ(r.control_name, "static");
}

TEST(RunControlledSupply, TracksBenchProfile) {
  trace::SupplyProfile profile(5.4);
  profile.hold(10.0).ramp_to(4.8, 5.0).hold(10.0).ramp_to(5.4, 5.0).hold(
      10.0);
  SimConfig cfg;
  cfg.t_end = 40.0;
  cfg.vc0 = 5.3;
  cfg.v_target = 0.0;
  const auto r = run_controlled_supply(xu4(), profile, 0.5, cfg);
  EXPECT_EQ(r.metrics.brownouts, 0u);
  EXPECT_GT(r.controller.interrupts, 0u);
}

TEST(BalancedOpp, PicksHighestThroughputWithinBudget) {
  // Generous budget: the full machine fits.
  const auto top = balanced_opp(xu4(), 100.0);
  EXPECT_EQ(top, xu4().highest_opp());
  // Tiny budget: only the floor fits.
  const auto bottom = balanced_opp(xu4(), 0.5);
  EXPECT_EQ(bottom, xu4().lowest_opp());
  // Mid budget: the chosen OPP fits and no faster OPP under budget exists.
  const double budget = 4.0;
  const auto mid = balanced_opp(xu4(), budget);
  EXPECT_LE(xu4().power.board_power(mid, xu4().opps, 1.0), budget);
  const double rate = xu4().perf.instruction_rate(mid, xu4().opps, 1.0);
  for (int nl = 1; nl <= 4; ++nl)
    for (int nb = 0; nb <= 4; ++nb)
      for (std::size_t fi = 0; fi < xu4().opps.size(); ++fi) {
        const soc::OperatingPoint opp{fi, {nl, nb}};
        if (xu4().power.board_power(opp, xu4().opps, 1.0) <= budget) {
          EXPECT_LE(xu4().perf.instruction_rate(opp, xu4().opps, 1.0),
                    rate + 1e-6);
        }
      }
}

TEST(BalancedOpp, MonotoneInBudget) {
  double prev_rate = -1.0;
  for (double w : {2.0, 3.0, 4.0, 5.0, 6.0, 8.0}) {
    const auto opp = balanced_opp(xu4(), w);
    const double rate = xu4().perf.instruction_rate(opp, xu4().opps, 1.0);
    EXPECT_GE(rate, prev_rate);
    prev_rate = rate;
  }
}

TEST(RunSolarPowerNeutral, AnchorsWindowAtMppTarget) {
  // The helper caps the tracking window just above the configured target
  // (the paper's "target voltage set at the calibrated MPP"): the mean
  // node voltage must settle near the target, not drift towards v_max.
  SolarScenario scenario;
  scenario.t_start = 12.0 * 3600.0;
  scenario.t_end = scenario.t_start + 300.0;
  auto cfg = solar_sim_config(scenario);
  cfg.record_series = false;
  const auto r = run_solar_power_neutral(xu4(), scenario, cfg);
  EXPECT_NEAR(r.metrics.vc_stats.mean(), 5.3, 0.25);
}

TEST(SolarScenario, SeedChangesOutcomeDeterministically) {
  SolarScenario a;
  a.condition = trace::WeatherCondition::kPartialSun;
  a.t_start = 12.0 * 3600.0;
  a.t_end = a.t_start + 60.0;
  a.seed = 1;
  SolarScenario b = a;
  b.seed = 2;
  auto cfg = solar_sim_config(a);
  cfg.record_series = false;
  const auto ra1 = run_solar_power_neutral(xu4(), a, cfg);
  const auto ra2 = run_solar_power_neutral(xu4(), a, cfg);
  const auto rb = run_solar_power_neutral(xu4(), b, cfg);
  // Same seed -> identical metrics; different seed -> different harvest.
  EXPECT_DOUBLE_EQ(ra1.metrics.energy_harvested_j,
                   ra2.metrics.energy_harvested_j);
  EXPECT_NE(ra1.metrics.energy_harvested_j, rb.metrics.energy_harvested_j);
}

}  // namespace
}  // namespace pns::sim
