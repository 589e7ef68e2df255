// Tests for the open plugin registries: spec-string round trips, duplicate
// rejection and diagnostics naming the valid choices on every axis,
// lossless equivalence between the programmatic factories and their spec
// strings, and the new trace/flicker sources end-to-end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <variant>

#include "sweep/registry.hpp"
#include "sweep/presets.hpp"
#include "sweep/runner.hpp"
#include "trace/trace_io.hpp"
#include "util/time_series.hpp"

namespace pns::sweep {
namespace {

ScenarioSpec tiny_solar_spec() {
  ScenarioSpec s;
  s.t_start = 12.0 * 3600.0;
  s.t_end = s.t_start + 30.0;
  s.record_series = false;
  return s;
}

// ------------------------------------------------- spec-string round trips

// Composes "kind:k=default,..." from an entry's declared params (keys
// with no rendered default are skipped).
template <typename Entry>
std::string spec_with_defaults(const Entry& entry) {
  ParamMap params;
  for (const auto& p : entry.params)
    if (!p.default_value.empty()) params.set(p.key, p.default_value);
  return params.empty() ? entry.kind
                        : entry.kind + ":" + params.serialize();
}

// One suite over every registry axis: the shared Registry<Axis> /
// KindSpec<Axis> contract holds for each of them.
template <class Axis>
class EveryAxis : public ::testing::Test {};
using AxisTypes =
    ::testing::Types<ControlAxis, SourceAxis, IntegratorAxis, PlatformAxis>;
TYPED_TEST_SUITE(EveryAxis, AxisTypes);

TYPED_TEST(EveryAxis, KindsRoundTripRefuseDuplicatesAndNameEveryKind) {
  using Spec = KindSpec<TypeParam>;
  Registry<TypeParam>& registry = Registry<TypeParam>::instance();
  const auto entries = registry.entries();  // copy: add() is exercised
  ASSERT_FALSE(entries.empty());
  EXPECT_NE(registry.find(Spec{}.kind), nullptr) << "default kind";
  for (const auto& entry : entries) {
    // Bare kind.
    const Spec bare = Spec::parse(entry.kind);
    EXPECT_EQ(bare.spec_string(), entry.kind);
    EXPECT_EQ(Spec::parse(bare.spec_string()), bare);
    // Kind with every advertised parameter at its default.
    const std::string text = spec_with_defaults(entry);
    const Spec full = Spec::parse(text);
    EXPECT_EQ(full.spec_string(), text) << entry.kind;
    EXPECT_EQ(Spec::parse(full.spec_string()), full) << entry.kind;
    // Registering the kind a second time is refused.
    EXPECT_THROW(registry.add(entry), std::invalid_argument) << entry.kind;
  }
  EXPECT_EQ(registry.entries().size(), entries.size());

  try {
    Spec::parse("no-such-kind");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::string("unknown ") + TypeParam::noun +
                        " 'no-such-kind'"),
              std::string::npos)
        << what;
    for (const auto& entry : entries)
      EXPECT_NE(what.find(" " + entry.kind), std::string::npos)
          << entry.kind << " missing from: " << what;
  }
}

TEST(Registry, CompatFactoriesRoundTripThroughSpecStrings) {
  // The programmatic factories encode losslessly: parsing their spec
  // string reproduces the identical spec.
  const ControlSpec pns = ControlSpec::power_neutral(fig6_controller_config());
  EXPECT_EQ(ControlSpec::parse(pns.spec_string()), pns);

  const ControlSpec gov = ControlSpec::linux_governor("ondemand");
  EXPECT_EQ(gov.spec_string(), "gov:ondemand");
  EXPECT_EQ(ControlSpec::parse(gov.spec_string()), gov);

  const ControlSpec pin =
      ControlSpec::static_opp_point(soc::OperatingPoint{4, {4, 2}});
  EXPECT_EQ(pin.spec_string(), "static:opp=4,little=4,big=2");
  EXPECT_EQ(ControlSpec::parse(pin.spec_string()), pin);
}

TEST(Registry, RetiredRk23BatchKindResolvesToRk23Simd) {
  // `list` (and every "valid:" diagnostic) prints the registered entries:
  // rk23batch is gone from them, yet its spec strings still resolve --
  // to the rk23simd entry, keeping their own spelling.
  const IntegratorRegistry& registry = IntegratorRegistry::instance();
  for (const auto& entry : registry.entries())
    EXPECT_NE(entry.kind, "rk23batch");
  ASSERT_NE(registry.find("rk23simd"), nullptr);
  EXPECT_EQ(registry.find("rk23batch"), registry.find("rk23simd"));
  const IntegratorSpec spec = IntegratorSpec::parse("rk23batch:width=4");
  EXPECT_EQ(spec.kind, "rk23batch");
  EXPECT_EQ(spec.spec_string(), "rk23batch:width=4");
  try {
    IntegratorSpec::parse("rk99");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    EXPECT_EQ(std::string(e.what()).find("rk23batch"), std::string::npos)
        << e.what();
  }
}

TEST(Registry, IntegratorKindsResolveToDistinctNumerics) {
  auto spec = tiny_solar_spec();
  const auto default_cfg = make_sim_config(spec);
  EXPECT_EQ(default_cfg.step_control, ehsim::StepControl::kClamped);
  EXPECT_FALSE(default_cfg.coast);

  spec.integrator = IntegratorSpec::parse("rk23pi");
  const auto pi_cfg = make_sim_config(spec);
  EXPECT_EQ(pi_cfg.step_control, ehsim::StepControl::kPi);
  EXPECT_EQ(pi_cfg.event_localization,
            ehsim::EventLocalization::kDenseRoot);
  EXPECT_TRUE(pi_cfg.coast);
  EXPECT_DOUBLE_EQ(pi_cfg.rel_tol, 1e-4);
  EXPECT_DOUBLE_EQ(pi_cfg.max_segment_s, 0.25);
  EXPECT_DOUBLE_EQ(pi_cfg.max_ode_step_s, 0.25);

  spec.integrator = IntegratorSpec::parse(
      "rk23pi:rtol=1e-05,seg=0.1,coast=false");
  const auto tuned = make_sim_config(spec);
  EXPECT_DOUBLE_EQ(tuned.rel_tol, 1e-5);
  EXPECT_DOUBLE_EQ(tuned.max_segment_s, 0.1);
  EXPECT_DOUBLE_EQ(tuned.max_ode_step_s, 0.1);
  EXPECT_FALSE(tuned.coast);

  // The explicit "rk23" kind with numeric overrides tweaks tolerances
  // without flipping the engine.
  spec.integrator = IntegratorSpec::parse("rk23:rtol=1e-07");
  const auto tightened = make_sim_config(spec);
  EXPECT_EQ(tightened.step_control, ehsim::StepControl::kClamped);
  EXPECT_DOUBLE_EQ(tightened.rel_tol, 1e-7);
}

// ------------------------------------------------------------ diagnostics

TEST(Registry, UnknownKindsNameTheValidChoices) {
  try {
    ControlSpec::parse("warp-speed");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'warp-speed'"), std::string::npos);
    EXPECT_NE(what.find("pns"), std::string::npos);
    EXPECT_NE(what.find("gov:ondemand"), std::string::npos);
    EXPECT_NE(what.find("static"), std::string::npos);
  }
  try {
    SourceSpec::parse("darkness");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("solar"), std::string::npos);
    EXPECT_NE(what.find("shadow"), std::string::npos);
    EXPECT_NE(what.find("trace"), std::string::npos);
    EXPECT_NE(what.find("flicker"), std::string::npos);
  }
}

TEST(Registry, UnknownAndMalformedParamsRejectedAtParseTime) {
  EXPECT_THROW(ControlSpec::parse("pns:warp=1"), ParamError);
  EXPECT_THROW(ControlSpec::parse("gov:ondemand:period=abc"), ParamError);
  EXPECT_THROW(SourceSpec::parse("flicker:cadence=3"), ParamError);
  EXPECT_THROW(IntegratorSpec::parse("rk99"), ParamError);
  EXPECT_THROW(IntegratorSpec::parse("rk23pi:warp=1"), ParamError);
  EXPECT_THROW(IntegratorSpec::parse("rk23pi:rtol=tight"), ParamError);
  // Unsigned tunables reject negatives at parse time, not mid-sweep.
  EXPECT_THROW(ControlSpec::parse("static:opp=-1"), ParamError);
  EXPECT_THROW(ControlSpec::parse("gov:userspace:index=-2"), ParamError);
  try {
    ControlSpec::parse("gov:ondemand:perod=0.05");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'perod'"), std::string::npos);
    EXPECT_NE(what.find("period"), std::string::npos);
    EXPECT_NE(what.find("up_threshold"), std::string::npos);
  }
}

TEST(Registry, BadWeatherParamNamesTheConditions) {
  auto spec = tiny_solar_spec();
  spec.source = SourceSpec::parse("solar:weather=apocalypse");
  try {
    resolve_source(spec);
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("apocalypse"), std::string::npos);
    EXPECT_NE(what.find("full-sun"), std::string::npos);
    EXPECT_NE(what.find("hail"), std::string::npos);
  }
}

// -------------------------------------------- factory/spec equivalence

TEST(Registry, PnsSpecStringDrivesBitIdenticalSimulation) {
  auto programmatic = tiny_solar_spec();
  programmatic.control = ControlSpec::power_neutral(fig6_controller_config());
  auto parsed = tiny_solar_spec();
  parsed.control = ControlSpec::parse(programmatic.control.spec_string());
  const auto a = run_scenario(programmatic);
  const auto b = run_scenario(parsed);
  EXPECT_EQ(a.metrics.instructions, b.metrics.instructions);
  EXPECT_EQ(a.metrics.energy_harvested_j, b.metrics.energy_harvested_j);
  EXPECT_EQ(a.metrics.vc_stats.mean(), b.metrics.vc_stats.mean());
}

TEST(Registry, GovernorParamsReachTheGovernor) {
  const auto spec = tiny_solar_spec();
  auto control = ControlSpec::parse("gov:ondemand:period=0.05");
  const auto sel = resolve_control(control, spec);
  const auto* governor =
      std::get_if<std::unique_ptr<gov::Governor>>(&sel.scheme);
  ASSERT_NE(governor, nullptr);
  ASSERT_NE(*governor, nullptr);
  EXPECT_DOUBLE_EQ((*governor)->sampling_period(), 0.05);
}

TEST(Registry, ControllerParamsReachTheConfig) {
  const auto spec = tiny_solar_spec();
  auto control = ControlSpec::parse("pns:v_q=0.04,ordering=freq-first");
  const auto sel = resolve_control(control, spec);
  const auto* controller = std::get_if<ctl::ControllerConfig>(&sel.scheme);
  ASSERT_NE(controller, nullptr);
  EXPECT_DOUBLE_EQ(controller->v_q, 0.04);
  EXPECT_EQ(controller->ordering, soc::OrderingPolicy::kFreqFirst);
  // Untouched keys keep their defaults.
  EXPECT_DOUBLE_EQ(controller->v_width, ctl::ControllerConfig{}.v_width);
  // With nothing selected, control stays power-neutral.
  EXPECT_TRUE(std::holds_alternative<ctl::ControllerConfig>(
      sim::ControlSelection{}.scheme));
}

TEST(Registry, StaticParamsResolveTheOperatingPoint) {
  const auto spec = tiny_solar_spec();
  const auto sel =
      resolve_control(ControlSpec::parse("static:opp=4,little=4,big=2"),
                      spec);
  const auto* opp =
      std::get_if<std::optional<soc::OperatingPoint>>(&sel.scheme);
  ASSERT_NE(opp, nullptr);
  ASSERT_TRUE(opp->has_value());
  EXPECT_EQ((*opp)->freq_index, 4u);
  EXPECT_EQ((*opp)->cores, (soc::CoreConfig{4, 2}));
  EXPECT_THROW(
      resolve_control(ControlSpec::parse("static:opp=99"), spec),
      ParamError);
}

TEST(Registry, SolarWeatherParamOverridesTheCondition) {
  auto by_axis = tiny_solar_spec();
  by_axis.condition = trace::WeatherCondition::kCloud;
  auto by_param = tiny_solar_spec();  // condition left at full-sun
  by_param.source = SourceSpec::parse("solar:weather=cloud");
  by_param.control = by_axis.control;
  const auto a = run_scenario(by_axis);
  const auto b = run_scenario(by_param);
  EXPECT_EQ(a.metrics.energy_harvested_j, b.metrics.energy_harvested_j);
  EXPECT_EQ(source_condition_label(by_param), "cloud");
}

TEST(Registry, ShadowParamsOverrideTheShadowSpec) {
  ScenarioSpec by_field = fig6_shadowing_base();
  by_field.shadow.depth = 0.2;
  by_field.control = ControlSpec::static_opp_point(*by_field.initial_opp);
  ScenarioSpec by_param = fig6_shadowing_base();
  by_param.source = SourceSpec::parse("shadow:depth=0.2");
  by_param.control = by_field.control;
  const auto a = run_scenario(by_field);
  const auto b = run_scenario(by_param);
  EXPECT_EQ(a.metrics.energy_harvested_j, b.metrics.energy_harvested_j);
  EXPECT_EQ(a.metrics.vc_stats.min(), b.metrics.vc_stats.min());
}

// ----------------------------------------------------- new source kinds

TEST(Registry, FlickerSourceRunsEndToEnd) {
  auto spec = tiny_solar_spec();
  spec.source = SourceSpec::parse("flicker:period=10,depth=0.5,duty=0.4");
  const auto r = run_scenario(spec);
  EXPECT_TRUE(r.used_controller);  // default control is pns
  EXPECT_GT(r.metrics.energy_harvested_j, 0.0);
  // Deterministic: no seed sensitivity at all.
  auto reseeded = spec;
  reseeded.seed = spec.seed + 17;
  EXPECT_EQ(run_scenario(reseeded).metrics.energy_harvested_j,
            r.metrics.energy_harvested_j);
}

TEST(Registry, TraceSourceRunsFromCsv) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pns-trace-src-" + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    TimeSeries series;
    series.append(0.0, 0.0);
    series.append(12.0 * 3600.0, 800.0);
    series.append(24.0 * 3600.0, 0.0);
    ASSERT_TRUE(trace::save_trace_csv(path, series));
  }
  auto spec = tiny_solar_spec();
  spec.source = SourceSpec::parse("trace:file=" + path);
  const auto r = run_scenario(spec);
  EXPECT_GT(r.metrics.energy_harvested_j, 0.0);
  // scale= attenuates the harvest.
  spec.source = SourceSpec::parse("trace:file=" + path + ",scale=0.5");
  const auto half = run_scenario(spec);
  EXPECT_LT(half.metrics.energy_harvested_j, r.metrics.energy_harvested_j);
  std::filesystem::remove(path);

  // A missing file is a per-scenario error, not a crash.
  auto bad = tiny_solar_spec();
  bad.source = SourceSpec::parse("trace:file=/no/such/file.csv");
  EXPECT_THROW(run_scenario(bad), std::exception);
}

// -------------------------------------------------- extension mechanics

TEST(Registry, RuntimeRegisteredKindIsReachableFromSpecs) {
  // A user-registered control kind (a trivial "pin the top OPP" policy)
  // becomes addressable by spec string with no other wiring.
  static bool registered = false;
  if (!registered) {
    ControlRegistry::instance().add(ControlEntry{
        "test-top",
        "test-only: pin the highest frequency",
        {},
        [](const ScenarioSpec& spec, const ParamMap&) {
          return sim::ControlSelection::pinned(soc::OperatingPoint{
              spec.platform.opps.max_index(), spec.platform.max_cores});
        },
    });
    registered = true;
  }
  auto spec = tiny_solar_spec();
  spec.control = ControlSpec::parse("test-top");
  const auto r = run_scenario(spec);
  EXPECT_FALSE(r.used_controller);
  EXPECT_GT(r.metrics.instructions, 0.0);
  EXPECT_THROW(
      ControlRegistry::instance().add(ControlEntry{"test-top", "", {}, {}}),
      std::invalid_argument);
}

TEST(Registry, DepthAxisGatesPerSourceNotPerBase) {
  // A shadowing base overridden by a non-shadow sources axis must not
  // clone identical scenarios over the now-meaningless depth axis...
  SweepSpec sw;
  sw.base = fig6_shadowing_base();
  sw.shadow_depths = {0.2, 0.3, 0.4, 0.5};
  sw.sources = {SourceSpec::parse("flicker:period=10")};
  EXPECT_EQ(sw.size(), 1u);
  EXPECT_EQ(sw.expand().size(), 1u);

  // ...while a mixed axis keeps the depth sweep for its shadow member
  // only, with unique labels throughout.
  sw.sources = {SourceSpec::parse("flicker:period=10"),
                SourceSpec::parse("shadow")};
  EXPECT_EQ(sw.size(), 1u + 4u);
  const auto specs = sw.expand();
  ASSERT_EQ(specs.size(), 5u);
  std::unordered_set<std::string> labels;
  for (const auto& s : specs) labels.insert(s.label);
  EXPECT_EQ(labels.size(), specs.size());
}

TEST(Registry, ConditionAxisGatesPerSource) {
  // Sources that ignore ScenarioSpec::condition must not multiply over
  // the weather axis (`pns_sweep weather --source shadow:...` used to
  // clone 4 identical scenarios per control).
  SweepSpec sw = weather_sweep(2.0);
  const std::size_t n_controls = sw.controls.size();
  ASSERT_EQ(sw.size(), 4u * n_controls);
  sw.sources = {SourceSpec::parse("shadow:depth=0.5")};
  EXPECT_EQ(sw.size(), n_controls);
  const auto specs = sw.expand();
  ASSERT_EQ(specs.size(), n_controls);
  std::unordered_set<std::string> labels;
  for (const auto& s : specs) labels.insert(s.label);
  EXPECT_EQ(labels.size(), specs.size());
  // A mixed axis keeps the weather multiplication for solar only.
  sw.sources = {SourceSpec::parse("solar"),
                SourceSpec::parse("flicker:period=10")};
  EXPECT_EQ(sw.size(), 4u * n_controls + n_controls);
  EXPECT_EQ(sw.expand().size(), sw.size());
}

TEST(Registry, SourceAxisExpandsAndLabels) {
  SweepSpec sw;
  sw.base = tiny_solar_spec();
  sw.sources = {SourceSpec::parse("solar"),
                SourceSpec::parse("flicker:period=10")};
  sw.seeds = {1, 2};
  EXPECT_EQ(sw.size(), 4u);
  const auto specs = sw.expand();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].label, "full-sun/pns/seed=1");
  EXPECT_EQ(specs[2].label, "flicker/pns/seed=1");
}

}  // namespace
}  // namespace pns::sweep
