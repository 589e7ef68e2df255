// Declarative scenario specification for batch simulation.
//
// Every headline result of the paper is a *sweep* -- governors x weather x
// capacitances x operating points (Figs. 6-15, Tables I-II). A
// ScenarioSpec names one fully determined simulation point as plain data
// (the one way to declare a PV scenario: sweeps and paper benches alike
// run it through run_scenario); a SweepSpec expands a cartesian product
// of axes into a vector of specs.
// Because specs are data, a sweep can be executed serially, across a
// thread pool (sweep/runner.hpp), or sharded across machines, without the
// experiment code changing.
//
// Control, source, integrator and platform selection are *open*: a
// KindSpec<Axis> is a registry kind plus a typed ParamMap
// (sweep/registry.hpp), addressable as a compact spec string --
// "pns:v_q=0.04", "gov:ondemand:period=0.05", "static:opp=4",
// "shadow:depth=0.2,hold=5", "trace:file=day.csv", "flicker:period=30".
// New policies and supply shapes register a factory instead of editing
// this file, the engine assembly and the CLI in lockstep.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/controller.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "soc/platform.hpp"
#include "trace/weather.hpp"
#include "util/params.hpp"

namespace pns::sweep {

/// Parameters of the deterministic shadowing-event source (Fig. 6): full
/// irradiance, a linear collapse to `depth` at `t_event`, a hold, and a
/// recovery ramp. All times are offsets relative to the scenario's
/// t_start, so shifting the window shifts the event with it. Spec-string
/// params of the "shadow" kind override these field-wise.
struct ShadowingSpec {
  double t_event_s = 2.0;
  double t_fall_s = 0.4;
  double hold_s = 3.2;
  double t_rise_s = 0.4;
  double depth = 0.40;       ///< transmittance floor during the shadow
  double peak_wm2 = 1000.0;  ///< irradiance outside the shadow
};

template <class Axis>
class Registry;  // sweep/registry.hpp
struct ControlEntry;
struct SourceEntry;
struct IntegratorEntry;
struct PlatformEntry;

/// The four registry axes. A tag carries the axis's noun (diagnostics,
/// `--<noun>` flags, `pns_sweep list`), the kind a default-constructed
/// spec selects, the entry type its Registry holds and the provider unit
/// that registers its built-in kinds (register_<noun>s.cpp).
///
/// Control: how the SoC is governed -- "pns", "static", "gov:<name>",
/// "mdgov:<name>", or anything registered at runtime.
struct ControlAxis {
  static constexpr const char* noun = "control";
  static constexpr const char* default_kind = "pns";
  using Entry = ControlEntry;
  static void register_builtins(Registry<ControlAxis>& registry);
};

/// Source: what feeds the storage node -- "solar", "shadow", "trace",
/// "flicker", ...
struct SourceAxis {
  static constexpr const char* noun = "source";
  static constexpr const char* default_kind = "solar";
  using Entry = SourceEntry;
  static void register_builtins(Registry<SourceAxis>& registry);
};

/// Integrator: "rk23" (the original engine, bit-for-bit), "rk23pi",
/// "rk23simd", ... plus numeric overrides, e.g. "rk23pi:rtol=1e-05".
/// Applied onto the SimConfig by make_sim_config.
struct IntegratorAxis {
  static constexpr const char* noun = "integrator";
  static constexpr const char* default_kind = "rk23";
  using Entry = IntegratorEntry;
  static void register_builtins(Registry<IntegratorAxis>& registry);
};

/// Platform: "mono" (the paper's single-domain ODROID XU4) or a
/// multi-domain topology such as "biglittle:big_cores=2,arbiter=demand",
/// compiled into a soc::Platform by run_scenario before control/source
/// resolution.
struct PlatformAxis {
  static constexpr const char* noun = "platform";
  static constexpr const char* default_kind = "mono";
  using Entry = PlatformEntry;
  static void register_builtins(Registry<PlatformAxis>& registry);
};

/// Open selection on one registry axis: a registered kind plus its
/// parameters. The control factories encode their typed arguments into
/// the ParamMap losslessly (shortest_double), so a programmatically built
/// spec and its string form drive bit-identical simulations.
template <class Axis>
struct KindSpec {
  std::string kind = Axis::default_kind;
  ParamMap params;

  /// Round-trippable "kind" / "kind:key=value,..." form (identity in
  /// journal headers and CLI flags).
  std::string spec_string() const {
    return params.empty() ? kind : kind + ":" + params.serialize();
  }

  /// Parses a spec string, validating the kind, its parameter keys and
  /// their value types against the axis registry; errors name the valid
  /// choices. Defined in registry.cpp.
  static KindSpec parse(std::string_view text);

  bool operator==(const KindSpec&) const = default;

  // ---------------------------------------------- control-axis helpers

  /// Compact row identity for labels and reports: the kind alone ("pns",
  /// "gov:ondemand", "static"); parameters are deliberately omitted --
  /// SweepSpec::expand() disambiguates duplicates positionally.
  std::string label() const
    requires std::same_as<Axis, ControlAxis>
  {
    return kind;
  }

  /// The governor name of a "gov:<name>" kind; empty otherwise.
  std::string governor_name() const
    requires std::same_as<Axis, ControlAxis>;

  static KindSpec power_neutral(ctl::ControllerConfig config = {})
    requires std::same_as<Axis, ControlAxis>;
  static KindSpec linux_governor(std::string name)
    requires std::same_as<Axis, ControlAxis>;
  static KindSpec static_opp_point(soc::OperatingPoint opp)
    requires std::same_as<Axis, ControlAxis>;
};

using ControlSpec = KindSpec<ControlAxis>;
using SourceSpec = KindSpec<SourceAxis>;
/// Integrator and platform are whole-sweep knobs like pv_mode: SweepSpec
/// has no axis over them.
using IntegratorSpec = KindSpec<IntegratorAxis>;
using PlatformSpec = KindSpec<PlatformAxis>;

/// One fully determined simulation point. Value semantics throughout: a
/// spec can be copied, stored, compared in logs and shipped to a worker.
struct ScenarioSpec {
  /// Human-readable identity; SweepSpec::expand() composes one from the
  /// axis values when empty.
  std::string label;

  soc::Platform platform = soc::Platform::odroid_xu4();
  /// When not "mono", run_scenario resolves this through the platform
  /// registry and replaces `platform` with the compiled topology before
  /// anything else (static controls validate OPPs against it).
  PlatformSpec platform_spec{};

  SourceSpec source{};
  trace::WeatherCondition condition = trace::WeatherCondition::kFullSun;
  ShadowingSpec shadow{};  ///< used when source is the "shadow" kind

  ControlSpec control{};

  // Time window and weather synthesis (defaults: the paper's 10:30-16:30
  // recording window).
  double t_start = 10.5 * 3600.0;
  double t_end = 16.5 * 3600.0;
  std::uint64_t seed = 42;
  double trace_dt_s = 0.1;
  /// PV evaluation mode (exact Newton vs measured-error table); applies to
  /// every source kind that models the PV array.
  ehsim::PvSource::Mode pv_mode = ehsim::PvSource::Mode::kExact;
  /// Integration engine; the default reproduces the original RK23 stepper
  /// bit for bit. Like pv_mode this is a whole-sweep knob, not an axis.
  IntegratorSpec integrator{};

  // Storage node and regulation band.
  double capacitance_f = 47e-3;
  double band_fraction = 0.05;
  double vc0 = 5.3;
  /// Band centre; when unset: 5.3 V (the array MPP) for daylight sources,
  /// 0 (disabled) for shadowing scenarios, matching the paper's setups.
  std::optional<double> v_target;

  // Run semantics.
  bool enable_reboot = true;
  bool record_series = false;
  double record_interval_s = 0.25;
  /// Initial operating point; the warm-start defaults of
  /// sim::make_pv_engine apply when unset.
  std::optional<soc::OperatingPoint> initial_opp;

  double duration() const { return t_end - t_start; }
};

/// Builds the SimConfig a spec resolves to (exposed for tests and for
/// callers that need to tweak numerics before running).
sim::SimConfig make_sim_config(const ScenarioSpec& spec);

class ScenarioAssets;  // sweep/assets.hpp

/// Runs one scenario to completion on the calling thread, resolving the
/// source and control through their registries (sweep/registry.hpp).
/// Constructs a fresh one-shot SimEngine internally; thread-safe with
/// respect to other concurrent run_scenario calls on distinct specs.
sim::SimResult run_scenario(const ScenarioSpec& spec);

/// Same, but reusing `assets` -- a run's cache of immutable scenario
/// inputs (synthesised weather traces and the like) -- so rows that
/// share a trace stop re-synthesising it. Results are bit-identical to
/// the cache-free overload: cached assets are pure functions of their
/// keys. `assets` may be shared by concurrent calls.
sim::SimResult run_scenario(const ScenarioSpec& spec,
                            ScenarioAssets& assets);

/// What one scenario produced. `ok == false` means run_scenario threw
/// (including unknown kinds/params in its specs); the exception text is
/// preserved and the sweep continues (one diverging configuration must
/// not sink a thousand-point overnight run).
struct SweepOutcome {
  ScenarioSpec spec;
  sim::SimResult result;  ///< valid only when ok
  bool ok = false;
  std::string error;
  double wall_s = 0.0;  ///< execution wall-clock (excluded from aggregates)
};

/// Lockstep batch width of a spec's integrator kind: the "width"
/// parameter (default 8, floor 1) when the kind is batch-capable
/// (IntegratorEntry::batch_capable), 0 when it is not (or the kind is
/// unknown -- the hard error belongs to run_scenario). The runner groups
/// up to this many adjacent compatible rows into one BatchEngine.
std::size_t batch_width(const ScenarioSpec& spec);

/// Whether two specs may share one lockstep batch: identical integrator,
/// platform and source selections, weather condition and PV mode -- i.e.
/// rows that differ only along the remaining sweep axes (control, seed,
/// capacitance, ...). Batching never changes a row's bytes, so a stricter
/// or looser predicate would be equally correct; equal PV modes keep a
/// unit single-mode, so a tabulated unit never packs its PV solves
/// (ehsim/solar_cell_simd.hpp).
bool batch_compatible(const ScenarioSpec& a, const ScenarioSpec& b);

/// run_scenario into the row slot `out`: the spec and result with ok
/// set, or the exception's text with ok == false, and wall_s the call's
/// wall clock. The one scalar row path of the sweep runner. It fills a
/// caller-owned slot because a default SweepOutcome costs a platform
/// build, several microseconds on a row of short scenarios.
void run_scenario_outcome(const ScenarioSpec& spec, ScenarioAssets& assets,
                          SweepOutcome& out);

/// Receives one row of a lockstep group: the spec's index within the
/// group and its finished outcome.
using BatchedOutcomeSink = std::function<void(std::size_t, SweepOutcome&&)>;

/// Runs a group of scenarios to completion in one lockstep
/// sim::BatchEngine on the calling thread (the batched counterpart of
/// run_scenario; the caller picks the group, normally adjacent
/// batch_compatible rows capped at batch_width). Every lane's result is
/// bit-identical to run_scenario on the same spec.
///
/// Rows leave the group as they finish: each outcome goes to
/// `on_outcome` at the superstep where its lane is done, and the lane
/// (engine, PvSource, resolved spec) is destroyed right after, while its
/// batchmates keep running. Every spec reaches `on_outcome` exactly once,
/// in completion order. A row's wall_s is its own lane build plus its
/// share of the lockstep run (sim::BatchEngine::run), so a group's row
/// costs sum to its wall.
///
/// Per-spec resolution failures are captured per spec and delivered at
/// once -- one malformed row never sinks its batchmates -- and a mid-run
/// failure reruns the rows not yet delivered scalar, so the diagnostic
/// lands on the failing row alone (their wall_s is the scalar rerun's).
/// An exception thrown by `on_outcome` itself propagates.
void run_scenarios_batched(const ScenarioSpec* specs, std::size_t count,
                           ScenarioAssets& assets,
                           const BatchedOutcomeSink& on_outcome);

/// Same, collecting the outcomes in spec order.
std::vector<SweepOutcome> run_scenarios_batched(const ScenarioSpec* specs,
                                                std::size_t count,
                                                ScenarioAssets& assets);

/// Cartesian product of sweep axes over a base scenario. An empty axis
/// means "hold the base value"; non-empty axes multiply. Expansion order
/// is deterministic: sources (outermost), conditions, controls,
/// capacitances, shadow depths, seeds (innermost).
struct SweepSpec {
  ScenarioSpec base;
  std::vector<SourceSpec> sources;
  std::vector<trace::WeatherCondition> conditions;
  std::vector<ControlSpec> controls;
  std::vector<double> capacitances_f;
  std::vector<double> shadow_depths;  ///< shadowing scenarios only
  std::vector<std::uint64_t> seeds;

  /// Number of scenarios expand() will produce.
  std::size_t size() const;

  /// Expands the product into concrete specs with composed labels.
  std::vector<ScenarioSpec> expand() const;
};

}  // namespace pns::sweep
