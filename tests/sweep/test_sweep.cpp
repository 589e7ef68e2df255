// Tests for the scenario-sweep subsystem (sweep/).
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ehsim/sources.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/assets.hpp"
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
  // share the run's asset cache must publish the same bytes as
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

TEST(SweepRunner, ThreadsShareOneTracePerKey) {
  // Table II over three weather seeds: 18 rows, 3 traces. Four threads
  // share the run's cache, so each trace is synthesised once, and the
  // output is the 1-thread run's byte for byte.
  SweepSpec sw = table2_sweep(1.0, {1, 2, 3});
  sw.base.integrator = IntegratorSpec::parse("rk23pi");
  const auto specs = sw.expand();
  ASSERT_EQ(specs.size(), 18u);
  ScenarioAssets assets;
  const auto parallel = runner_with(4).run(specs, nullptr, &assets);
  EXPECT_EQ(assets.misses(), 3u);
  EXPECT_EQ(assets.hits(), 15u);
  const auto serial = runner_with(1).run(specs);
  EXPECT_EQ(csv_of(parallel), csv_of(serial));
  std::ostringstream pj, sj;
  Aggregator(parallel).write_json(pj);
  Aggregator(serial).write_json(sj);
  EXPECT_EQ(pj.str(), sj.str());
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

// ------------------------------------------------- batch compatibility
// batch_compatible decides which adjacent rows share a lockstep unit. Its
// pv_mode clause is also what keeps every unit single-mode, so a
// tabulated unit never enters BatchRhs's batched Newton path.

TEST(BatchCompatible, RowsDifferingOnlyInControlOrSeedShareAUnit) {
  ScenarioSpec a = tiny_solar_spec();
  a.integrator = IntegratorSpec::parse("rk23simd");
  ScenarioSpec b = a;
  b.control = ControlSpec::linux_governor("ondemand");
  ScenarioSpec c = a;
  c.seed = a.seed + 1;
  EXPECT_TRUE(batch_compatible(a, a));
  EXPECT_TRUE(batch_compatible(a, b));
  EXPECT_TRUE(batch_compatible(b, a));
  EXPECT_TRUE(batch_compatible(a, c));
  EXPECT_TRUE(batch_compatible(c, a));
}

TEST(BatchCompatible, RowsDifferingInAnEngineAxisDoNot) {
  ScenarioSpec base = tiny_solar_spec();
  base.integrator = IntegratorSpec::parse("rk23simd");
  using Edit = void (*)(ScenarioSpec&);
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"pv_mode",
       [](ScenarioSpec& s) {
         s.pv_mode = ehsim::PvSource::Mode::kTabulated;
       }},
      {"source kind",
       [](ScenarioSpec& s) { s.source = SourceSpec::parse("flicker"); }},
      {"source params",
       [](ScenarioSpec& s) {
         s.source = SourceSpec::parse("solar:weather=cloud");
       }},
      {"condition",
       [](ScenarioSpec& s) {
         s.condition = trace::WeatherCondition::kCloud;
       }},
      {"integrator",
       [](ScenarioSpec& s) {
         s.integrator = IntegratorSpec::parse("rk23simd:rtol=1e-05");
       }},
      {"platform",
       [](ScenarioSpec& s) {
         s.platform_spec = PlatformSpec::parse("biglittle");
       }},
  };
  for (const auto& [what, edit] : edits) {
    ScenarioSpec other = base;
    edit(other);
    EXPECT_FALSE(batch_compatible(base, other)) << what;
    EXPECT_FALSE(batch_compatible(other, base)) << what;
  }
}

TEST(SweepRunner, TwoPvModeSpecListMatchesRk23PiByteForByte) {
  // Exact rows then tabulated rows: the units split where the mode
  // changes, and both halves must still publish rk23pi's bytes.
  auto two_modes = [](const std::string& integrator) {
    auto sw = determinism_sweep();
    sw.base.integrator = IntegratorSpec::parse(integrator);
    auto specs = sw.expand();
    const std::size_t n = specs.size();
    for (std::size_t i = 0; i < n; ++i) {
      ScenarioSpec tab = specs[i];
      tab.pv_mode = ehsim::PvSource::Mode::kTabulated;
      tab.label += "-tabulated";
      specs.push_back(tab);
    }
    return specs;
  };
  const auto ref = runner_with(1).run(two_modes("rk23pi"));
  for (const unsigned threads : {1u, 2u}) {
    const auto got = runner_with(threads).run(two_modes("rk23simd:width=4"));
    for (const auto& out : got) EXPECT_TRUE(out.ok) << out.error;
    EXPECT_EQ(csv_of(got), csv_of(ref)) << "threads=" << threads;
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

TEST(SweepRunner, EffectiveThreadsNeverExceedsWorkUnitCount) {
  // Twelve rows in one lockstep unit are one task: a second thread would
  // find no unit to claim, and a caller sizing one asset cache per
  // thread slot would size three too many.
  auto sw = determinism_sweep();
  sw.seeds = {11, 12, 13, 14};
  sw.base.integrator = IntegratorSpec::parse("rk23simd:width=100000");
  const auto specs = sw.expand();
  ASSERT_EQ(specs.size(), 12u);
  ASSERT_EQ(work_units(specs).size(), 1u);
  const SweepRunner runner = runner_with(4);
  EXPECT_EQ(runner.effective_threads(work_units(specs).size()), 1u);
  // The one unit runs on one thread, through the caller's cache: one
  // build per seed's trace.
  ScenarioAssets assets;
  std::unordered_set<std::thread::id> reporters;
  runner.run(
      specs,
      [&](std::size_t, const SweepOutcome&) {
        reporters.insert(std::this_thread::get_id());
      },
      &assets);
  EXPECT_EQ(reporters.size(), 1u);
  EXPECT_EQ(assets.misses(), 4u);
  EXPECT_EQ(assets.hits(), 8u);

  // rk23pi rows are one unit each.
  sw.base.integrator = IntegratorSpec::parse("rk23pi");
  EXPECT_EQ(work_units(sw.expand()).size(), 12u);
  EXPECT_EQ(runner.effective_threads(work_units(sw.expand()).size()), 4u);
}

// ---------------------------------------------------- per-row delivery
// A lockstep unit reports each row at the superstep where its lane
// finishes, with the lane's own share of the unit's wall as wall_s.

/// Four rk23simd rows that form one lockstep unit (they differ only in
/// control and seed); `windows_s[i]` is row i's simulated span.
std::vector<ScenarioSpec> lockstep_unit(const std::vector<double>& windows_s) {
  SweepSpec sw;
  sw.base = tiny_solar_spec();
  sw.base.integrator = IntegratorSpec::parse("rk23simd:width=8");
  sw.controls = {ControlSpec::power_neutral(),
                 ControlSpec::linux_governor("ondemand")};
  sw.seeds = {11, 12};
  auto specs = sw.expand();
  EXPECT_EQ(specs.size(), windows_s.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    specs[i].t_end = specs[i].t_start + windows_s[i];
  EXPECT_EQ(work_units(specs).size(), 1u) << "rows no longer share a unit";
  return specs;
}

/// What run_recorded saw: on_outcome's and progress's calls.
struct Delivery {
  std::vector<std::size_t> order;     ///< indices, in delivery order
  std::vector<std::size_t> calls;     ///< per index: on_outcome calls
  std::vector<double> wall_s;         ///< per index
  std::vector<SweepOutcome> outcomes; ///< run()'s return value
  std::size_t progress_calls = 0;
};

/// Runs `specs` on `threads` threads, recording every report.
Delivery run_recorded(const std::vector<ScenarioSpec>& specs,
                      unsigned threads) {
  Delivery d;
  d.calls.assign(specs.size(), 0);
  d.wall_s.assign(specs.size(), 0.0);
  SweepRunnerOptions opt;
  opt.threads = threads;
  opt.progress = [&](std::size_t done, std::size_t total) {
    ++d.progress_calls;
    EXPECT_EQ(done, d.progress_calls);
    EXPECT_EQ(total, specs.size());
  };
  opt.on_outcome = [&](std::size_t i, const SweepOutcome& out) {
    d.order.push_back(i);
    ++d.calls[i];
    d.wall_s[i] = out.wall_s;
  };
  d.outcomes = SweepRunner(opt).run(specs);
  return d;
}

TEST(SweepRunnerLockstep, ShortRowIsReportedFirstWithTheSmallerCost) {
  // The short row shares the unit with three rows eight times its span:
  // it reaches on_outcome first, not after the slowest batchmate, and
  // its cost excludes the supersteps it no longer ran in.
  const auto specs = lockstep_unit({240.0, 240.0, 30.0, 240.0});
  const Delivery d = run_recorded(specs, 1);
  ASSERT_EQ(d.order.size(), specs.size());
  EXPECT_EQ(d.order.front(), 2u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{1},
                              std::size_t{3}}) {
    ASSERT_TRUE(d.outcomes[i].ok) << d.outcomes[i].error;
    EXPECT_LT(d.wall_s[2], d.wall_s[i]) << specs[i].label;
  }
  // The reported outcome is the one run() returns.
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(d.outcomes[i].wall_s, d.wall_s[i]);
}

TEST(SweepRunnerLockstep, RowCostsSumToTheUnitWall) {
  // One unit on one thread: the run's wall is the unit's wall, and the
  // rows' costs partition it (plan_shards and the daemon's leases add
  // them up as if they did).
  const auto specs = lockstep_unit({2400.0, 600.0, 2400.0, 1200.0});
  SweepRunnerOptions opt;
  opt.threads = 1;
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = SweepRunner(opt).run(specs);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  double sum = 0.0;
  for (const auto& out : outcomes) {
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_GT(out.wall_s, 0.0);
    sum += out.wall_s;
  }
  EXPECT_LE(sum, wall);
  EXPECT_NEAR(sum, wall, 0.01 * wall);
}

TEST(SweepRunnerLockstep, EveryRowReachesOnOutcomeExactlyOnce) {
  // Lockstep units of four, one holding a row that fails to resolve,
  // at one and at several threads: each index is reported once, and
  // progress counts every row.
  auto sw = determinism_sweep();
  sw.base.integrator = IntegratorSpec::parse("rk23simd:width=4");
  auto specs = sw.expand();
  specs[3].control = ControlSpec::linux_governor("no-such-governor");
  ASSERT_EQ(work_units(specs).size(), 2u);
  for (const unsigned threads : {1u, 3u}) {
    const Delivery d = run_recorded(specs, threads);
    EXPECT_EQ(d.order.size(), specs.size());
    EXPECT_EQ(d.progress_calls, specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(d.calls[i], 1u) << "threads=" << threads << " row " << i;
      EXPECT_EQ(d.outcomes[i].ok, i != 3) << d.outcomes[i].error;
    }
  }
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
