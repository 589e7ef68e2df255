// Seeded scenario-grid generator for differential tests.
//
// The batched-engine harnesses (tests/sim/test_batch_parity,
// tests/ehsim/test_batch_fallback, tests/sweep) all need the same thing:
// a reproducible population of *diverse* ScenarioSpecs -- different
// controls, weather, seeds, capacitances, windows -- to drive two
// execution strategies over and compare the outputs. This header builds
// those grids from a single 64-bit seed (pns::Rng, so the draw is
// bit-stable across platforms) and provides an exact whole-result
// comparison: two SimResults are serialised through the sweep layer's
// SummaryRow JSON (every numeric field shortest_double round-trips, so
// equality of the strings is equality of the doubles) and compared as
// strings, which makes a mismatch print *which* metric diverged instead
// of a bare false.
//
// Header-only on purpose: tests/support has no .cpp files, so the CMake
// per-directory test glob does not turn it into a test binary.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/aggregate.hpp"
#include "sweep/scenario.hpp"
#include "trace/weather.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace pns::testsupport {

/// Tuning for grid synthesis. Defaults make one test run a few seconds;
/// scale `count` up for soak runs.
struct GridOptions {
  std::size_t count = 8;       ///< specs to generate
  double min_window_s = 20.0;  ///< shortest simulated span
  double max_window_s = 90.0;  ///< longest simulated span
  /// Restrict the control draw ("pns", "gov:ondemand", "static", ...);
  /// empty = the built-in mix below.
  std::vector<std::string> controls;
  /// Integrator every spec runs under (the comparison harness swaps this
  /// out per execution strategy).
  std::string integrator = "rk23pi";
  /// Platform draw ("mono", "biglittle:arbiter=demand", ...); empty =
  /// the default mono platform on every spec. Multi-domain entries give
  /// the differential harnesses per-domain metrics to compare.
  std::vector<std::string> platforms;
};

/// The default control mix: the paper's controller, a representative
/// governor pair, and the uncontrolled baseline.
inline const std::vector<std::string>& default_control_mix() {
  static const std::vector<std::string> mix = {
      "pns", "gov:ondemand", "gov:powersave", "static"};
  return mix;
}

/// Deterministically synthesises `opt.count` diverse specs from `seed`.
/// Pure function of (seed, opt): the same arguments always yield the
/// same specs, on every platform.
inline std::vector<sweep::ScenarioSpec> make_scenario_grid(
    std::uint64_t seed, const GridOptions& opt = {}) {
  Rng rng(seed);
  const auto& conditions = trace::all_weather_conditions();
  const auto& controls =
      opt.controls.empty() ? default_control_mix() : opt.controls;
  std::vector<sweep::ScenarioSpec> specs;
  specs.reserve(opt.count);
  for (std::size_t i = 0; i < opt.count; ++i) {
    sweep::ScenarioSpec s;
    s.label = "grid-" + std::to_string(i);
    s.condition = conditions[rng.uniform_index(conditions.size())];
    s.control = sweep::ControlSpec::parse(
        controls[rng.uniform_index(controls.size())]);
    s.integrator = sweep::IntegratorSpec::parse(opt.integrator);
    if (!opt.platforms.empty())
      s.platform_spec = sweep::PlatformSpec::parse(
          opt.platforms[rng.uniform_index(opt.platforms.size())]);
    // Mostly mid-day starts, so full-sun and cloud conditions both have
    // harvest to regulate against; jitter start and span. A fraction
    // start at night instead: with no harvest the cap drains to
    // brownout, and the dead span that follows is exactly the quiescent
    // state the engines coast across (lane retirement in the batched
    // engine).
    s.t_start = rng.bernoulli(0.25) ? 3600.0 * rng.uniform(0.0, 3.0)
                                    : 3600.0 * rng.uniform(9.0, 15.0);
    s.t_end = s.t_start + rng.uniform(opt.min_window_s, opt.max_window_s);
    s.seed = rng.next_u64();
    s.capacitance_f = rng.bernoulli(0.5) ? 47e-3 : 22e-3;
    // A starting voltage barely above the platform's 4.1 V cutoff
    // exercises brownout/reboot handling in a fraction of the grids
    // (engines require vc0 > v_min at construction).
    s.vc0 = rng.bernoulli(0.25) ? rng.uniform(4.15, 4.6) : 5.3;
    s.record_series = false;
    specs.push_back(std::move(s));
  }
  return specs;
}

/// Newton-stress variant: specs engineered to hammer the PV solve paths
/// the batched Newton solve runs, where bit-divergence would be most
/// likely to hide. Dawn/dusk starts put the irradiance ramp right at the
/// solve's hard region (tiny photo-currents, long cold Newton runs);
/// near-brownout starting voltages make the span stiff (events, rejected
/// steps, divergence tails); and a fraction of lanes run tabulated-mode
/// PV so batches mix bilinear lookups, Newton solves and memo hits.
/// Same purity contract as make_scenario_grid.
inline std::vector<sweep::ScenarioSpec> make_newton_stress_grid(
    std::uint64_t seed, const GridOptions& opt = {}) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  const auto& conditions = trace::all_weather_conditions();
  const auto& controls =
      opt.controls.empty() ? default_control_mix() : opt.controls;
  std::vector<sweep::ScenarioSpec> specs;
  specs.reserve(opt.count);
  for (std::size_t i = 0; i < opt.count; ++i) {
    sweep::ScenarioSpec s;
    s.label = "newton-stress-" + std::to_string(i);
    s.condition = conditions[rng.uniform_index(conditions.size())];
    s.control = sweep::ControlSpec::parse(
        controls[rng.uniform_index(controls.size())]);
    s.integrator = sweep::IntegratorSpec::parse(opt.integrator);
    if (!opt.platforms.empty())
      s.platform_spec = sweep::PlatformSpec::parse(
          opt.platforms[rng.uniform_index(opt.platforms.size())]);
    // Dawn (5.5-7.5 h) or dusk (16.5-19 h): the irradiance ramp sweeps
    // the photo-current through the cold-solve region during the window.
    s.t_start = rng.bernoulli(0.5) ? 3600.0 * rng.uniform(5.5, 7.5)
                                   : 3600.0 * rng.uniform(16.5, 19.0);
    s.t_end = s.t_start + rng.uniform(opt.min_window_s, opt.max_window_s);
    s.seed = rng.next_u64();
    // Small buffers steepen dVC/dt; near-cutoff starts (4.1 V platform
    // cutoff) make brownout events and rejected steps routine.
    s.capacitance_f = rng.bernoulli(0.5) ? 22e-3 : 10e-3;
    s.vc0 = rng.bernoulli(0.5) ? rng.uniform(4.12, 4.25) : 4.6;
    s.pv_mode = rng.bernoulli(0.33) ? ehsim::PvSource::Mode::kTabulated
                                    : ehsim::PvSource::Mode::kExact;
    s.record_series = false;
    specs.push_back(std::move(s));
  }
  return specs;
}

/// Canonical exact serialisation of one outcome's metrics: the sweep
/// layer's SummaryRow JSON. shortest_double makes every numeric field
/// round-trip bit for bit, so string equality here is double equality --
/// and an EXPECT_EQ failure prints the diverging field by name.
inline std::string canonical_metrics(const sweep::SweepOutcome& outcome) {
  std::ostringstream os;
  JsonWriter w(os, JsonStyle::kCompact);
  sweep::write_summary_row_json(w, sweep::summarize(outcome));
  return os.str();
}

/// Convenience: wraps a bare SimResult (ok outcome) for canonical
/// comparison against another run of the same spec.
inline std::string canonical_metrics(const sweep::ScenarioSpec& spec,
                                     const sim::SimResult& result) {
  sweep::SweepOutcome out;
  out.spec = spec;
  out.result = result;
  out.ok = true;
  return canonical_metrics(out);
}

}  // namespace pns::testsupport
