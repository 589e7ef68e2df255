// Integration tests for the co-simulation engine (sim/engine): charging,
// brownout/reboot, governor mode, and the paper's central claims that the
// power-neutral controller (a) survives where static operation dies and
// (b) converges to approximate power neutrality.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ehsim/sources.hpp"
#include "governors/registry.hpp"
#include "sim/experiment.hpp"
#include "sweep/registry.hpp"
#include "trace/supply_profiles.hpp"
#include "util/contracts.hpp"

namespace pns::sim {
namespace {

const soc::Platform& xu4() {
  static soc::Platform p = soc::Platform::odroid_xu4();
  return p;
}

soc::RaytraceWorkload make_workload() {
  return soc::RaytraceWorkload(xu4().perf.params().instr_per_frame);
}

TEST(SimEngine, StaticLoadSettlesAtSupplyEquilibrium) {
  // 5.5 V behind 1 ohm vs lowest OPP (~1.76 W incl. nothing else):
  // equilibrium solves (5.5 - v)/1 = P/v.
  trace::SupplyProfile profile(5.5);
  profile.hold(30.0);
  ehsim::ControlledSupply source(profile.as_function(), 1.0);
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 30.0;
  cfg.vc0 = 5.0;
  cfg.v_target = 0.0;
  SimEngine engine(xu4(), source, workload, cfg);
  const auto r = engine.run();

  const double p_low =
      xu4().power.board_power(xu4().lowest_opp(), xu4().opps, 1.0);
  const double v_eq =
      (5.5 + std::sqrt(5.5 * 5.5 - 4.0 * p_low)) / 2.0;  // positive root
  EXPECT_NEAR(r.series.vc.values().back(), v_eq, 0.05);
  EXPECT_EQ(r.metrics.brownouts, 0u);
  EXPECT_EQ(r.control_name, "static");
}

TEST(SimEngine, WorkloadProgressMatchesRate) {
  trace::SupplyProfile profile(5.5);
  profile.hold(10.0);
  ehsim::ControlledSupply source(profile.as_function(), 1.0);
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 10.0;
  cfg.v_target = 0.0;
  SimEngine engine(xu4(), source, workload, cfg);
  const auto r = engine.run();
  const double rate =
      xu4().perf.instruction_rate(xu4().lowest_opp(), xu4().opps, 1.0);
  EXPECT_NEAR(r.metrics.instructions, rate * 10.0, rate * 0.01);
  EXPECT_NEAR(workload.instructions(), r.metrics.instructions, 1.0);
}

TEST(SimEngine, BrownoutWhenSupplyCollapses) {
  trace::SupplyProfile profile(5.5);
  profile.hold(5.0).ramp_to(2.0, 1.0).hold(24.0);
  ehsim::ControlledSupply source(profile.as_function(), 0.5);
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 30.0;
  cfg.v_target = 0.0;
  cfg.enable_reboot = false;
  cfg.initial_opp = xu4().highest_opp();
  SimEngine engine(xu4(), source, workload, cfg);
  const auto r = engine.run();
  EXPECT_GE(r.metrics.brownouts, 1u);
  EXPECT_LT(r.metrics.lifetime_s, 10.0);
  EXPECT_GT(r.metrics.lifetime_s, 4.0);
  // Once off (no reboot), the node floats back towards the (diminished)
  // supply; compute stays dead so uptime is short.
  EXPECT_LT(r.metrics.uptime_s, 10.0);
}

TEST(SimEngine, RebootAfterRecovery) {
  trace::SupplyProfile profile(5.5);
  profile.hold(3.0).step_to(2.0).hold(3.0).step_to(5.5).hold(24.0);
  ehsim::ControlledSupply source(profile.as_function(), 1.0);
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 30.0;
  cfg.v_target = 0.0;
  cfg.enable_reboot = true;
  cfg.initial_opp = xu4().highest_opp();
  SimEngine engine(xu4(), source, workload, cfg);
  const auto r = engine.run();
  EXPECT_GE(r.metrics.brownouts, 1u);
  // After recovery the board reboots and finishes the run executing: the
  // last recorded frequency is non-zero.
  EXPECT_GT(r.series.freq_hz.values().back(), 0.0);
  EXPECT_GT(r.metrics.uptime_s, 15.0);
}

TEST(SimEngine, ControllerSurvivesDipThatKillsStatic) {
  // The Fig. 3/6 claim: under a deep dip in source power, static
  // performance browns out while power-neutral scaling rides it through.
  auto build_profile = [] {
    trace::SupplyProfile p(5.6);
    p.hold(10.0).ramp_to(4.55, 2.0).hold(30.0).ramp_to(5.6, 2.0).hold(16.0);
    return p;
  };
  const double r_series = 0.55;

  // Static at a high OPP: dies during the dip. (4.55 V source behind
  // 0.55 ohm cannot deliver ~6 W above 4.1 V.)
  {
    auto profile = build_profile();
    ehsim::ControlledSupply source(profile.as_function(), r_series);
    auto workload = make_workload();
    SimConfig cfg;
    cfg.t_end = 60.0;
    cfg.vc0 = 5.5;
    cfg.v_target = 0.0;
    cfg.enable_reboot = false;
    cfg.initial_opp = soc::OperatingPoint{7, {4, 3}};
    SimEngine engine(xu4(), source, workload, cfg);
    const auto r = engine.run();
    EXPECT_GE(r.metrics.brownouts, 1u);
    EXPECT_LT(r.metrics.lifetime_s, 20.0);
  }

  // Power-neutral controller: scales down and survives the whole run.
  {
    auto profile = build_profile();
    ehsim::ControlledSupply source(profile.as_function(), r_series);
    auto workload = make_workload();
    SimConfig cfg;
    cfg.t_end = 60.0;
    cfg.vc0 = 5.5;
    cfg.v_target = 0.0;
    cfg.enable_reboot = false;
    cfg.initial_opp = soc::OperatingPoint{7, {4, 3}};
    SimEngine engine(xu4(), source, workload, cfg, ctl::ControllerConfig{});
    const auto r = engine.run();
    EXPECT_EQ(r.metrics.brownouts, 0u)
        << "power-neutral control should survive the dip";
    EXPECT_NEAR(r.metrics.lifetime_s, 60.0, 1e-6);
    EXPECT_GT(r.controller.interrupts, 0u);
    EXPECT_TRUE(r.used_controller);
    EXPECT_EQ(r.control_name, "power-neutral");
  }
}

TEST(SimEngine, ControllerTracksRisingSupply) {
  // Rising available power must pull the OPP (and consumption) up.
  trace::SupplyProfile profile(4.8);
  profile.hold(5.0).ramp_to(5.8, 10.0).hold(30.0);
  ehsim::ControlledSupply source(profile.as_function(), 0.4);
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 45.0;
  cfg.vc0 = 4.8;
  cfg.v_target = 0.0;
  SimEngine engine(xu4(), source, workload, cfg, ctl::ControllerConfig{});
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.brownouts, 0u);
  // Final consumption well above the lowest OPP's.
  const double p_low =
      xu4().power.board_power(xu4().lowest_opp(), xu4().opps, 1.0);
  EXPECT_GT(r.series.p_consumed.values().back(), p_low + 0.5);
}

TEST(SimEngine, PowerNeutralityUnderConstantSun) {
  // Constant full sun through the paper's PV array: after convergence the
  // consumed power approximates the available (MPP) power -- the Fig. 14
  // property -- and VC stays inside the operating window near the MPP.
  auto cell = paper_pv_array();
  ehsim::PvSource source(cell, [](double) { return 1000.0; });
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 120.0;
  cfg.vc0 = 5.3;
  cfg.v_target = 5.3;
  SimEngine engine(xu4(), source, workload, cfg, ctl::ControllerConfig{});
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.brownouts, 0u);

  const double p_mpp = cell.mpp(1000.0).power;
  // Average consumed power over the run within 25 % of MPP power.
  EXPECT_NEAR(r.metrics.avg_power_consumed_w(), p_mpp, 0.25 * p_mpp);
  // The node voltage dwells near the MPP voltage.
  EXPECT_NEAR(r.metrics.vc_stats.mean(), 5.3, 0.5);
  // Plenty of control activity happened.
  EXPECT_GT(r.controller.interrupts, 20u);
}

TEST(SimEngine, GovernorPerformanceDiesOnSolar) {
  auto cell = paper_pv_array();
  ehsim::PvSource source(cell, [](double) { return 1000.0; });
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 60.0;
  cfg.v_target = 0.0;
  cfg.enable_reboot = false;
  cfg.initial_opp = soc::OperatingPoint{0, xu4().max_cores};
  SimEngine engine(xu4(), source, workload, cfg,
                   gov::make_governor("performance", xu4()));
  const auto r = engine.run();
  EXPECT_GE(r.metrics.brownouts, 1u);
  EXPECT_LT(r.metrics.lifetime_s, 30.0);
  EXPECT_EQ(r.control_name, "performance");
}

TEST(SimEngine, GovernorPowersaveSurvivesOnSolar) {
  auto cell = paper_pv_array();
  ehsim::PvSource source(cell, [](double) { return 1000.0; });
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 60.0;
  cfg.v_target = 0.0;
  cfg.initial_opp = soc::OperatingPoint{0, xu4().max_cores};
  SimEngine engine(xu4(), source, workload, cfg,
                   gov::make_governor("powersave", xu4()));
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.brownouts, 0u);
  EXPECT_NEAR(r.metrics.lifetime_s, 60.0, 1e-6);
}

TEST(SimEngine, RecordedSeriesWellFormed) {
  trace::SupplyProfile profile(5.5);
  profile.sine(0.4, 8.0, 40.0);
  ehsim::ControlledSupply source(profile.as_function(), 0.5);
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 40.0;
  cfg.v_target = 0.0;
  cfg.record_interval_s = 0.1;
  SimEngine engine(xu4(), source, workload, cfg, ctl::ControllerConfig{});
  const auto r = engine.run();

  const auto& vc = r.series.vc;
  ASSERT_GT(vc.size(), 100u);
  for (std::size_t i = 1; i < vc.times().size(); ++i)
    ASSERT_GE(vc.times()[i], vc.times()[i - 1]);
  EXPECT_GT(vc.min_value(), 3.0);
  EXPECT_LT(vc.max_value(), 7.0);
  // Core counts stay within platform limits.
  EXPECT_GE(r.series.n_little.min_value(), 1.0);
  EXPECT_LE(r.series.n_little.max_value(), 4.0);
  EXPECT_LE(r.series.n_big.max_value(), 4.0);
  // Threshold traces recorded in controller mode and bracket each other.
  for (std::size_t i = 0; i < r.series.v_low.size(); ++i)
    EXPECT_LT(r.series.v_low.values()[i], r.series.v_high.values()[i]);
}

TEST(SimEngine, MetricsHistogramAccumulatesDuration) {
  trace::SupplyProfile profile(5.5);
  profile.hold(20.0);
  ehsim::ControlledSupply source(profile.as_function(), 1.0);
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 20.0;
  cfg.v_target = 0.0;
  SimEngine engine(xu4(), source, workload, cfg);
  const auto r = engine.run();
  EXPECT_NEAR(r.voltage_histogram.total_weight(), 20.0, 0.1);
}

TEST(SimEngine, ConfigContracts) {
  trace::SupplyProfile profile(5.5);
  ehsim::ControlledSupply source(profile.as_function(), 1.0);
  auto workload = make_workload();
  {
    SimConfig cfg;
    cfg.t_end = 0.0;
    EXPECT_THROW(SimEngine(xu4(), source, workload, cfg),
                 pns::ContractViolation);
  }
  {
    SimConfig cfg;
    cfg.vc0 = 3.0;  // below v_min
    EXPECT_THROW(SimEngine(xu4(), source, workload, cfg),
                 pns::ContractViolation);
  }
  {
    SimConfig cfg;
    cfg.capacitance_f = 0.0;
    EXPECT_THROW(SimEngine(xu4(), source, workload, cfg),
                 pns::ContractViolation);
  }
}

TEST(SimEngine, SteadyRegulationDoesNotChurnCores) {
  // Regression: the stationary limit cycle of quantised power levels must
  // be absorbed by DVFS alone (direction-alternating crossings carry no
  // trend); hot-plugs happen at most during the initial convergence.
  // Moderate irradiance keeps the tracking window mid-range (away from
  // its clamps, where linear core fallback may legitimately engage).
  auto cell = paper_pv_array();
  ehsim::PvSource source(cell, [](double) { return 600.0; });
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 120.0;
  cfg.vc0 = 5.2;
  cfg.v_target = 0.0;
  cfg.initial_opp = soc::OperatingPoint{4, {4, 1}};  // near balance
  SimEngine engine(xu4(), source, workload, cfg, ctl::ControllerConfig{});
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.brownouts, 0u);
  EXPECT_GT(r.controller.dvfs_steps, 50u);
  // Far fewer core operations than frequency operations (paper Fig. 11).
  EXPECT_LT(r.controller.hotplug_steps, r.controller.dvfs_steps / 5);
}

TEST(SimEngine, RecoversRegulationAfterReboot) {
  // Regression: during the 8 s boot the node charges towards Voc, beyond
  // the whole tracking window; the engine's post-calibration level check
  // must restart regulation instead of parking at the lowest OPP forever.
  auto cell = paper_pv_array();
  // Darkness for 30 s (forces a brownout from the demanding start OPP),
  // then steady sun.
  ehsim::PvSource source(
      cell, [](double t) { return t < 30.0 ? 0.0 : 900.0; });
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 180.0;
  cfg.vc0 = 5.3;
  cfg.v_target = 5.3;
  cfg.enable_reboot = true;
  cfg.initial_opp = soc::OperatingPoint{5, {4, 2}};
  SimEngine engine(xu4(), source, workload, cfg, ctl::ControllerConfig{});
  const auto r = engine.run();
  EXPECT_GE(r.metrics.brownouts, 1u);
  // After recovery the system consumes far more than the lowest OPP: the
  // last recorded consumption must exceed the powersave floor.
  const double p_low =
      xu4().power.board_power(xu4().lowest_opp(), xu4().opps, 1.0);
  EXPECT_GT(r.series.p_consumed.values().back(), p_low + 1.0);
  // And the node voltage came back down into the operating window.
  EXPECT_LT(r.series.vc.values().back(), 5.8);
}

TEST(SimEngine, CustomMonitorNetworkRespected) {
  // A divider scaled for a lower-voltage node must change the achievable
  // threshold range the controller tracks within.
  trace::SupplyProfile profile(5.3);
  profile.hold(5.0);
  ehsim::ControlledSupply source(profile.as_function(), 1.0);
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 5.0;
  cfg.v_target = 0.0;
  cfg.monitor_network.r_top = 600.0e3;  // shifts the range upwards
  SimEngine engine(xu4(), source, workload, cfg, ctl::ControllerConfig{});
  const auto r = engine.run();  // must simply run without contract issues
  EXPECT_EQ(r.metrics.brownouts, 0u);
}

TEST(SimEngine, LoadVoltageFloorIsNamedAndDefaultsToLegacyValue) {
  // The I = P/V clamp used to be a magic 0.05 inside the engine; it is now
  // a SimConfig knob so low-voltage platforms can widen their valid range.
  SimConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.load_v_floor_v, 0.05);
}

TEST(SimEngine, LoadVoltageFloorIsConfigurable) {
  // A floor above the operating point turns I = P / max(v, floor) into a
  // constant-current drain, which shifts the supply equilibrium upward:
  // (5.5 - v)/R = P/floor instead of P/v. The settled voltage must move.
  auto run_with_floor = [&](double floor) {
    trace::SupplyProfile profile(5.5);
    profile.hold(30.0);
    ehsim::ControlledSupply source(profile.as_function(), 1.0);
    auto workload = make_workload();
    SimConfig cfg;
    cfg.t_end = 30.0;
    cfg.vc0 = 5.0;
    cfg.v_target = 0.0;
    cfg.load_v_floor_v = floor;
    SimEngine engine(xu4(), source, workload, cfg);
    return engine.run().series.vc.values().back();
  };
  const double v_default = run_with_floor(0.05);
  const double v_floored = run_with_floor(5.4);
  // P/5.4 draws less than P/v_eq (~5.16 V), so the floored run settles
  // measurably higher.
  EXPECT_GT(v_floored, v_default + 0.005);
}

// ------------------------------------------------ steady-state coasting

/// The registered rk23pi kind's engine settings (resolved through the
/// integrator registry, so these tests track the shipped defaults),
/// minus coasting unless asked.
SimConfig rk23pi_config(SimConfig cfg, bool coast) {
  sweep::ScenarioSpec spec;
  spec.integrator = sweep::IntegratorSpec::parse("rk23pi");
  sweep::resolve_integrator(spec, cfg);
  cfg.coast = coast;
  return cfg;
}

TEST(SimEngine, CoastingMatchesSteppedRunOnQuiescentHour) {
  // Constant irradiance, pinned OPP: after the node settles at its
  // stable equilibrium the coasting engine jumps to the end in analytic
  // strides. Every reported metric must agree tightly with the fully
  // stepped run -- coasting is a fast path, not an approximation knob.
  auto run = [&](bool coast) {
    ehsim::PvSource source(sim::paper_pv_array(),
                           [](double) { return 700.0; });
    source.set_irradiance_hold([](double) {
      return std::numeric_limits<double>::infinity();
    });
    auto workload = make_workload();
    SimConfig cfg;
    cfg.t_end = 3600.0;
    cfg.vc0 = 5.3;
    cfg.initial_opp = balanced_opp(xu4(), source.available_power(0.0));
    cfg.record_series = false;
    SimEngine engine(xu4(), source, workload, rk23pi_config(cfg, coast));
    return engine.run();
  };
  const auto coasted = run(true);
  const auto stepped = run(false);
  EXPECT_EQ(coasted.metrics.brownouts, 0u);
  EXPECT_NEAR(coasted.metrics.energy_harvested_j,
              stepped.metrics.energy_harvested_j,
              1e-4 * stepped.metrics.energy_harvested_j);
  EXPECT_NEAR(coasted.metrics.energy_consumed_j,
              stepped.metrics.energy_consumed_j,
              1e-4 * stepped.metrics.energy_consumed_j);
  EXPECT_NEAR(coasted.metrics.vc_stats.mean(),
              stepped.metrics.vc_stats.mean(), 1e-3);
  EXPECT_EQ(coasted.metrics.instructions, stepped.metrics.instructions);
}

TEST(SimEngine, CoastingRespectsRecordingInterval) {
  // A recording run must keep its series density: coasting is capped at
  // the sampling interval, so the hour still records ~1 sample per
  // interval instead of one giant jump.
  ehsim::PvSource source(sim::paper_pv_array(),
                         [](double) { return 700.0; });
  source.set_irradiance_hold([](double) {
    return std::numeric_limits<double>::infinity();
  });
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 600.0;
  cfg.vc0 = 5.3;
  cfg.initial_opp = balanced_opp(xu4(), source.available_power(0.0));
  cfg.record_series = true;
  cfg.record_interval_s = 1.0;
  SimEngine engine(xu4(), source, workload,
                   rk23pi_config(cfg, /*coast=*/true));
  const auto r = engine.run();
  // ~600 intervals; decimation and forced samples make the exact count
  // fuzzy, but a single coast-to-end would leave only a handful.
  EXPECT_GT(r.series.vc.size(), 400u);
}

TEST(SimEngine, CoastingDoesNotSkipControllerLimitCycle) {
  // Under the power-neutral controller at constant sun the node is NOT
  // quiescent -- it limit-cycles between the comparator thresholds.
  // Even though the source vouches for constancy, the quiescence and
  // threshold-distance guards must keep the engine stepping, so the
  // controlled run sees the same interrupt activity with coasting
  // enabled.
  auto run = [&](bool coast) {
    ehsim::PvSource source(sim::paper_pv_array(),
                           [](double) { return 700.0; });
    source.set_irradiance_hold([](double) {
      return std::numeric_limits<double>::infinity();
    });
    SimConfig cfg;
    cfg.t_end = 120.0;
    cfg.vc0 = 5.3;
    cfg.v_target = 5.3;
    cfg.record_series = false;
    // Warm start (regulation-anchored window + balanced OPP), as the
    // paper's recordings: this is the configuration whose limit cycle
    // ticks ~2 interrupts per second at constant sun.
    return make_pv_engine(xu4(), source, ControlSelection::power_neutral(),
                          rk23pi_config(cfg, coast), /*warm_start=*/true)
        .engine->run();
  };
  const auto coasted = run(true);
  const auto stepped = run(false);
  EXPECT_GT(coasted.controller.interrupts, 20u);  // the cycle is alive
  EXPECT_EQ(coasted.controller.interrupts, stepped.controller.interrupts);
  EXPECT_EQ(coasted.metrics.brownouts, stepped.metrics.brownouts);
}

TEST(SimEngine, RunIsOneShot) {
  trace::SupplyProfile profile(5.5);
  ehsim::ControlledSupply source(profile.as_function(), 1.0);
  auto workload = make_workload();
  SimConfig cfg;
  cfg.t_end = 1.0;
  cfg.v_target = 0.0;
  SimEngine engine(xu4(), source, workload, cfg);
  (void)engine.run();
  EXPECT_THROW(engine.run(), pns::ContractViolation);
}

}  // namespace
}  // namespace pns::sim
