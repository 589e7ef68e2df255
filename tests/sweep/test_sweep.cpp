// Tests for the scenario-sweep subsystem (sweep/).
#include <cstdlib>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "ehsim/sources.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/presets.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"

namespace pns::sweep {
namespace {

// A deliberately short solar window so engine-backed tests stay fast.
ScenarioSpec tiny_solar_spec() {
  ScenarioSpec s;
  s.t_start = 12.0 * 3600.0;
  s.t_end = s.t_start + 30.0;
  s.record_series = false;
  return s;
}

// ------------------------------------------------------------- expansion

TEST(SweepSpec, EmptyAxesExpandToSingleBaseScenario) {
  SweepSpec sw;
  sw.base = tiny_solar_spec();
  EXPECT_EQ(sw.size(), 1u);
  const auto specs = sw.expand();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].seed, sw.base.seed);
  EXPECT_EQ(specs[0].capacitance_f, sw.base.capacitance_f);
}

TEST(SweepSpec, CartesianAxesMultiply) {
  SweepSpec sw;
  sw.base = tiny_solar_spec();
  sw.conditions = {trace::WeatherCondition::kFullSun,
                   trace::WeatherCondition::kCloud};
  sw.controls = {ControlSpec::power_neutral(),
                 ControlSpec::linux_governor("powersave"),
                 ControlSpec::linux_governor("ondemand")};
  sw.capacitances_f = {22e-3, 47e-3};
  sw.seeds = {1, 2, 3, 4, 5};
  EXPECT_EQ(sw.size(), 2u * 3u * 2u * 5u);
  EXPECT_EQ(sw.expand().size(), sw.size());
}

TEST(SweepSpec, ExpansionOrderIsSeedInnermost) {
  SweepSpec sw;
  sw.base = tiny_solar_spec();
  sw.controls = {ControlSpec::power_neutral(),
                 ControlSpec::linux_governor("powersave")};
  sw.seeds = {7, 8};
  const auto specs = sw.expand();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].seed, 7u);
  EXPECT_EQ(specs[1].seed, 8u);
  EXPECT_EQ(specs[0].control.kind, "pns");
  EXPECT_EQ(specs[2].control.kind, "gov:powersave");
}

TEST(SweepSpec, LabelsAreUniqueAcrossTheProduct) {
  SweepSpec sw;
  sw.base = tiny_solar_spec();
  sw.conditions = {trace::WeatherCondition::kFullSun,
                   trace::WeatherCondition::kPartialSun};
  sw.controls = {ControlSpec::power_neutral(),
                 ControlSpec::linux_governor("ondemand")};
  sw.capacitances_f = {22e-3, 47e-3};
  sw.seeds = {1, 2};
  std::unordered_set<std::string> labels;
  for (const auto& s : sw.expand()) labels.insert(s.label);
  EXPECT_EQ(labels.size(), sw.size());
}

TEST(SweepSpec, ShadowDepthAxisAppliesToShadowSpec) {
  SweepSpec sw;
  sw.base.source.kind = "shadow";
  sw.base.t_start = 0.0;
  sw.base.t_end = 10.0;
  sw.shadow_depths = {0.2, 0.5};
  const auto specs = sw.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_DOUBLE_EQ(specs[0].shadow.depth, 0.2);
  EXPECT_DOUBLE_EQ(specs[1].shadow.depth, 0.5);
}

TEST(SweepSpec, DuplicateControlLabelsAreDisambiguated) {
  // Two controller tunings share the "pns" label; expansion must keep
  // their scenario labels distinct (e.g. a grid search over alpha/beta).
  SweepSpec sw;
  sw.base = tiny_solar_spec();
  ctl::ControllerConfig a, b;
  a.alpha = 0.1;
  b.alpha = 0.2;
  sw.controls = {ControlSpec::power_neutral(a), ControlSpec::power_neutral(b),
                 ControlSpec::linux_governor("ondemand")};
  std::unordered_set<std::string> labels;
  for (const auto& s : sw.expand()) labels.insert(s.label);
  EXPECT_EQ(labels.size(), 3u);
}

TEST(RunScenario, ShadowTimesAreRelativeToWindowStart) {
  // Shifting the window must shift the event with it instead of tripping
  // shadowing_event's t_event >= t0 precondition.
  ScenarioSpec spec = fig6_shadowing_base();
  spec.t_start = 100.0;
  spec.t_end = 110.0;
  spec.control = ControlSpec::static_opp_point(*spec.initial_opp);
  const auto r = run_scenario(spec);
  EXPECT_DOUBLE_EQ(r.metrics.duration(), 10.0);
  EXPECT_GT(r.metrics.energy_harvested_j, 0.0);
}

TEST(SweepSpec, ShadowDepthAxisIgnoredForSolarSweeps) {
  // A depth axis on a solar sweep would multiply out identical runs with
  // colliding labels; it must be inert for non-shadowing sources.
  SweepSpec sw;
  sw.base = tiny_solar_spec();
  sw.shadow_depths = {0.2, 0.5};
  EXPECT_EQ(sw.size(), 1u);
  EXPECT_EQ(sw.expand().size(), 1u);
}

// ----------------------------------------------------- spec -> engine

TEST(RunScenario, PowerNeutralWiring) {
  auto spec = tiny_solar_spec();
  spec.control = ControlSpec::power_neutral();
  const auto r = run_scenario(spec);
  EXPECT_TRUE(r.used_controller);
  EXPECT_DOUBLE_EQ(r.metrics.duration(), spec.duration());
  EXPECT_GT(r.metrics.energy_harvested_j, 0.0);
}

TEST(RunScenario, GovernorWiring) {
  auto spec = tiny_solar_spec();
  spec.control = ControlSpec::linux_governor("powersave");
  const auto r = run_scenario(spec);
  EXPECT_FALSE(r.used_controller);
  EXPECT_EQ(r.control_name, "powersave");
  EXPECT_GT(r.metrics.instructions, 0.0);
}

TEST(RunScenario, StaticWiring) {
  auto spec = tiny_solar_spec();
  spec.control =
      ControlSpec::static_opp_point(spec.platform.lowest_opp());
  const auto r = run_scenario(spec);
  EXPECT_FALSE(r.used_controller);
  EXPECT_GT(r.metrics.instructions, 0.0);
}

TEST(RunScenario, ShadowingControlBeatsStatic) {
  // The Fig. 6 story: under a sudden shadow the controlled system keeps
  // VC higher than the uncontrolled one pinned at a hot OPP.
  ScenarioSpec base = fig6_shadowing_base();
  ScenarioSpec uncontrolled = base;
  uncontrolled.control = ControlSpec::static_opp_point(*base.initial_opp);
  ScenarioSpec controlled = base;
  controlled.control = ControlSpec::power_neutral(fig6_controller_config());
  const auto off = run_scenario(uncontrolled);
  const auto on = run_scenario(controlled);
  EXPECT_GT(on.metrics.vc_stats.min(), off.metrics.vc_stats.min());
  EXPECT_LE(on.metrics.brownouts, off.metrics.brownouts);
}

TEST(RunScenario, MakeSimConfigAppliesOverrides) {
  auto spec = tiny_solar_spec();
  spec.capacitance_f = 100e-3;
  spec.band_fraction = 0.1;
  spec.enable_reboot = false;
  spec.record_series = true;
  spec.record_interval_s = 0.5;
  const auto cfg = make_sim_config(spec);
  EXPECT_DOUBLE_EQ(cfg.capacitance_f, 100e-3);
  EXPECT_DOUBLE_EQ(cfg.band_fraction, 0.1);
  EXPECT_DOUBLE_EQ(cfg.v_target, 5.3);  // solar default
  EXPECT_FALSE(cfg.enable_reboot);
  EXPECT_TRUE(cfg.record_series);
  EXPECT_DOUBLE_EQ(cfg.record_interval_s, 0.5);

  spec.source.kind = "shadow";
  EXPECT_DOUBLE_EQ(make_sim_config(spec).v_target, 0.0);  // band disabled
  spec.v_target = 4.9;
  EXPECT_DOUBLE_EQ(make_sim_config(spec).v_target, 4.9);
}

// ------------------------------------------------------------ runner

SweepSpec determinism_sweep() {
  SweepSpec sw;
  sw.base = tiny_solar_spec();
  sw.controls = {ControlSpec::power_neutral(),
                 ControlSpec::linux_governor("powersave"),
                 ControlSpec::linux_governor("ondemand")};
  sw.seeds = {11, 12};
  return sw;
}

SweepRunner runner_with(unsigned threads) {
  SweepRunnerOptions opt;
  opt.threads = threads;
  return SweepRunner(opt);
}

std::string csv_of(const std::vector<SweepOutcome>& outcomes) {
  std::ostringstream os;
  Aggregator(outcomes).write_csv(os);
  return os.str();
}

TEST(SweepRunner, ResultsArriveInSpecOrder) {
  const auto specs = determinism_sweep().expand();
  const auto outcomes = runner_with(3).run(specs);
  ASSERT_EQ(outcomes.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(outcomes[i].spec.label, specs[i].label);
    EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
  }
}

TEST(SweepRunner, MultiThreadAggregateBitIdenticalToSingleThread) {
  const auto sw = determinism_sweep();
  const auto serial = runner_with(1).run(sw);
  const auto parallel = runner_with(4).run(sw);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok);
    ASSERT_TRUE(parallel[i].ok);
    // Bitwise equality of raw metrics, not just approximate agreement.
    EXPECT_EQ(serial[i].result.metrics.instructions,
              parallel[i].result.metrics.instructions);
    EXPECT_EQ(serial[i].result.metrics.energy_harvested_j,
              parallel[i].result.metrics.energy_harvested_j);
    EXPECT_EQ(serial[i].result.metrics.vc_stats.mean(),
              parallel[i].result.metrics.vc_stats.mean());
  }
  // And the serialised aggregate (what a sweep actually publishes) is
  // byte-identical.
  EXPECT_EQ(csv_of(serial), csv_of(parallel));
}

TEST(SweepRunner, TabulatedPvModeBitIdenticalAcrossThreadCounts) {
  // The tabulated PV mode trades exactness against the Newton solve for
  // speed, but it must stay *deterministic*: all workers read the same
  // immutable process-wide table (sim::paper_pv_table()), so the
  // aggregate CSV may not depend on the thread count in this mode either.
  auto sw = determinism_sweep();
  sw.base.pv_mode = ehsim::PvSource::Mode::kTabulated;
  const auto serial = runner_with(1).run(sw);
  const auto parallel = runner_with(4).run(sw);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    EXPECT_EQ(serial[i].result.metrics.instructions,
              parallel[i].result.metrics.instructions);
  }
  EXPECT_EQ(csv_of(serial), csv_of(parallel));
}

TEST(SweepRunner, Rk23PiAggregateBitIdenticalAcrossThreadCounts) {
  // The rk23pi integrator changes the numerics, not the determinism
  // story: its aggregate CSV may not depend on thread count either.
  auto sw = determinism_sweep();
  sw.base.integrator = IntegratorSpec::parse("rk23pi");
  const auto serial = runner_with(1).run(sw);
  const auto parallel = runner_with(4).run(sw);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    EXPECT_EQ(serial[i].result.metrics.instructions,
              parallel[i].result.metrics.instructions);
  }
  EXPECT_EQ(csv_of(serial), csv_of(parallel));
}

TEST(SweepRunner, AssetReuseBitIdenticalToRebuilding) {
  // Cached weather traces are pure functions of their keys: rows that
  // share a runner thread's asset cache must publish the same bytes as
  // rows each built from scratch by a cache-free run_scenario call.
  const auto specs = determinism_sweep().expand();
  const auto reused = runner_with(2).run(specs);
  std::vector<SweepOutcome> rebuilt(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    rebuilt[i].spec = specs[i];
    rebuilt[i].result = run_scenario(specs[i]);
    rebuilt[i].ok = true;
  }
  EXPECT_EQ(csv_of(reused), csv_of(rebuilt));
}

TEST(SweepRunner, Rk23SimdBitIdenticalToRk23PiAcrossWidthsAndThreads) {
  // rk23simd is an execution strategy over the rk23pi numerics, not a
  // numeric variant: every batch width, at every thread count, must
  // publish an aggregate byte-identical to scalar rk23pi. The sweep's
  // seed-innermost expansion puts compatible rows adjacent, so widths
  // >= 2 really do share lockstep batches here.
  auto ref_sw = determinism_sweep();
  ref_sw.base.integrator = IntegratorSpec::parse("rk23pi");
  const auto ref = runner_with(1).run(ref_sw);
  const std::string ref_csv = csv_of(ref);
  for (const unsigned width : {1u, 4u, 8u}) {
    auto sw = determinism_sweep();
    sw.base.integrator =
        IntegratorSpec::parse("rk23simd:width=" + std::to_string(width));
    for (const unsigned threads : {1u, 2u, 8u}) {
      const auto got = runner_with(threads).run(sw);
      EXPECT_EQ(csv_of(got), ref_csv)
          << "width=" << width << " threads=" << threads;
    }
  }
}

TEST(RunScenario, Rk23PiStaysCloseToDefaultIntegrator) {
  // Bounded divergence: the looser rk23pi numerics shift trajectories,
  // but paper-level metrics agree to a fraction of a percent.
  auto spec = tiny_solar_spec();
  spec.control = ControlSpec::power_neutral();
  const auto exact = run_scenario(spec);
  spec.integrator = IntegratorSpec::parse("rk23pi");
  const auto pi = run_scenario(spec);
  EXPECT_NEAR(pi.metrics.energy_harvested_j,
              exact.metrics.energy_harvested_j,
              0.005 * exact.metrics.energy_harvested_j);
  EXPECT_NEAR(pi.metrics.energy_consumed_j,
              exact.metrics.energy_consumed_j,
              0.005 * exact.metrics.energy_consumed_j);
  EXPECT_NEAR(pi.metrics.vc_stats.mean(), exact.metrics.vc_stats.mean(),
              0.01);
  EXPECT_EQ(pi.metrics.brownouts, exact.metrics.brownouts);
}

TEST(RunScenario, UnknownIntegratorKindFailsWithDiagnostics) {
  auto spec = tiny_solar_spec();
  spec.integrator.kind = "rk99";
  const auto outcomes =
      runner_with(1).run(std::vector<ScenarioSpec>{spec});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_NE(outcomes[0].error.find("rk99"), std::string::npos);
  EXPECT_NE(outcomes[0].error.find("rk23pi"), std::string::npos);
}

TEST(RunScenario, PvModeReachesTheSolarSource) {
  // Exact and tabulated runs of the same scenario agree closely (the
  // table's current error is ~mA) but are distinct trajectories.
  auto spec = tiny_solar_spec();
  spec.control = ControlSpec::linux_governor("powersave");
  const auto exact = run_scenario(spec);
  spec.pv_mode = ehsim::PvSource::Mode::kTabulated;
  const auto tab = run_scenario(spec);
  EXPECT_NEAR(tab.metrics.energy_harvested_j,
              exact.metrics.energy_harvested_j,
              0.01 * exact.metrics.energy_harvested_j + 1e-9);
}

TEST(SweepRunner, FailuresAreIsolatedPerScenario) {
  auto good = tiny_solar_spec();
  good.control = ControlSpec::linux_governor("powersave");
  auto bad = tiny_solar_spec();
  bad.control = ControlSpec::linux_governor("no-such-governor");
  const auto outcomes = runner_with(2).run(std::vector<ScenarioSpec>{good, bad, good});
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_NE(outcomes[1].error.find("no-such-governor"), std::string::npos);
  EXPECT_TRUE(outcomes[2].ok);
}

TEST(SweepRunner, EffectiveThreadsNeverExceedsScenarioCount) {
  SweepRunner runner = runner_with(8);
  EXPECT_EQ(runner.effective_threads(3), 3u);
  EXPECT_EQ(runner.effective_threads(100), 8u);
  EXPECT_EQ(runner.effective_threads(0), 1u);
}

// --------------------------------------------------------- aggregation

TEST(Aggregator, CsvRoundTripsNumericFields) {
  const auto outcomes = runner_with(2).run(determinism_sweep());
  const Aggregator agg(outcomes);
  std::ostringstream os;
  agg.write_csv(os);

  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  // Count header columns.
  std::size_t n_cols = 1;
  for (char c : line) n_cols += c == ',';
  EXPECT_EQ(n_cols, Aggregator::columns().size());

  std::size_t row_idx = 0;
  while (std::getline(in, line)) {
    ASSERT_LT(row_idx, agg.rows().size());
    // No cell in this schema needs RFC 4180 quoting for passing runs, so
    // a plain comma split re-tokenises the row.
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream ls(line);
    while (std::getline(ls, cell, ',')) cells.push_back(cell);
    ASSERT_EQ(cells.size(), n_cols);
    const auto& r = agg.rows()[row_idx];
    EXPECT_EQ(cells[0], r.label);
    // %.15g round-trips these doubles exactly.
    EXPECT_EQ(std::strtod(cells[11].c_str(), nullptr), r.instructions);
    EXPECT_EQ(std::strtod(cells[16].c_str(), nullptr), r.vc_mean);
    EXPECT_EQ(std::strtoull(cells[4].c_str(), nullptr, 10), r.seed);
    ++row_idx;
  }
  EXPECT_EQ(row_idx, agg.rows().size());
}

TEST(Aggregator, JsonOutputIsStructurallySound) {
  const auto outcomes = runner_with(2).run(determinism_sweep());
  const Aggregator agg(outcomes);
  std::ostringstream os;
  agg.write_json(os);
  const std::string doc = os.str();

  // Balanced braces/brackets and one "label" entry per row.
  long depth = 0;
  std::size_t labels = 0;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (doc[i] == '{' || doc[i] == '[') ++depth;
    if (doc[i] == '}' || doc[i] == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  for (std::size_t pos = doc.find("\"label\""); pos != std::string::npos;
       pos = doc.find("\"label\"", pos + 1))
    ++labels;
  EXPECT_EQ(labels, agg.rows().size());
  EXPECT_NE(doc.find("\"total\": " + std::to_string(agg.rows().size())),
            std::string::npos);
  EXPECT_NE(doc.find("\"failed\": 0"), std::string::npos);
}

TEST(Aggregator, NeutralityErrorMatchesMetrics) {
  auto spec = tiny_solar_spec();
  spec.control = ControlSpec::power_neutral();
  const auto outcomes = runner_with(1).run(std::vector<ScenarioSpec>{spec});
  ASSERT_TRUE(outcomes[0].ok);
  const auto row = summarize(outcomes[0]);
  const auto& m = outcomes[0].result.metrics;
  EXPECT_DOUBLE_EQ(
      row.neutrality_error,
      (m.energy_consumed_j - m.energy_harvested_j) / m.energy_harvested_j);
}

TEST(Aggregator, FailedRowsAreMarked) {
  auto bad = tiny_solar_spec();
  bad.control = ControlSpec::linux_governor("bogus");
  const auto outcomes = runner_with(1).run(std::vector<ScenarioSpec>{bad});
  const Aggregator agg(outcomes);
  EXPECT_EQ(agg.failed_count(), 1u);
  ASSERT_EQ(agg.rows().size(), 1u);
  EXPECT_FALSE(agg.rows()[0].ok);
  EXPECT_FALSE(agg.rows()[0].error.empty());
}

}  // namespace
}  // namespace pns::sweep
