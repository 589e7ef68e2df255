// High-level experiment scenarios shared by the benches and examples.
//
// Each helper assembles the standard pieces (calibrated PV array, weather
// trace or supply profile, raytrace workload, engine) for one family of
// the paper's experiments so that benches stay focused on *reporting*.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <variant>

#include "core/controller.hpp"
#include "ehsim/solar_cell.hpp"
#include "ehsim/sources.hpp"
#include "governors/governor.hpp"
#include "sim/engine.hpp"
#include "trace/irradiance.hpp"
#include "trace/supply_profiles.hpp"
#include "trace/weather.hpp"
#include "util/interp.hpp"

namespace pns::sim {

/// The PV array of the paper's validation setup: 1340 cm^2
/// monocrystalline, calibrated so that at full sun Isc ~ 1.15 A,
/// Voc ~ 6.8 V and the MPP is ~5.4 W at 5.3 V (Fig. 13). Calibrated
/// once per process (thread-safe static initialisation); every call
/// returns a copy of that one fit.
ehsim::SolarCell paper_pv_array();

/// The 250 cm^2 cell of Fig. 1 (area-scaled version of the same array).
ehsim::SolarCell fig1_pv_cell();

/// Process-wide shared interpolation table for paper_pv_array() (built on
/// first use; immutable, safe to share across sweep workers). Tabulated
/// experiment helpers use this instead of rebuilding the table per run.
std::shared_ptr<const ehsim::PvTable> paper_pv_table();

/// Default clear-sky model for the paper's test days (UK summer day).
trace::ClearSky paper_clear_sky();

/// What drives a solar experiment.
struct SolarScenario {
  trace::WeatherCondition condition = trace::WeatherCondition::kFullSun;
  double t_start = 10.5 * 3600.0;  ///< 10:30, as in Figs. 12/14
  double t_end = 16.5 * 3600.0;    ///< 16:30
  std::uint64_t seed = 42;
  double trace_dt_s = 0.1;         ///< weather sampling grid
  /// PV evaluation mode: kExact reproduces the Newton solve bit for bit;
  /// kTabulated answers from a measured-error interpolation table (see
  /// ehsim::PvSource).
  ehsim::PvSource::Mode pv_mode = ehsim::PvSource::Mode::kExact;
};

/// A fully resolved control scheme, ready to drive one engine: the
/// controller tuning for power-neutral control, a constructed governor,
/// or the pinned operating point (nullopt leaves config.initial_opp in
/// force) for a static run. A default-constructed selection is
/// power-neutral with the default tuning. This is what the sweep
/// registry's control factories produce; move-only because it owns the
/// governor.
struct ControlSelection {
  std::variant<ctl::ControllerConfig, std::unique_ptr<gov::Governor>,
               std::optional<soc::OperatingPoint>>
      scheme;

  static ControlSelection power_neutral(ctl::ControllerConfig config = {});
  static ControlSelection governed(std::unique_ptr<gov::Governor> governor);
  static ControlSelection pinned(std::optional<soc::OperatingPoint> opp);
};

/// Shared final assembly behind the run_solar_* helpers and the sweep's
/// run_scenario: builds the standard raytrace workload, applies the
/// control scheme's warm-start defaults (only when `warm_start`; the
/// shadowing scenarios start from the spec's explicit operating point)
/// and runs one engine over `source`:
///   * power-neutral + warm_start: anchors controller.v_ceiling just
///     above the regulation target and starts at the best OPP the opening
///     harvest can sustain (balanced_opp) -- the paper records systems
///     already in regulation.
///   * governor + warm_start: starts at the lowest frequency with every
///     core online (stock Linux never hot-plugs).
///   * pinned: sets config.initial_opp to the pinned point when one is
///     given.
SimResult run_pv_control(const soc::Platform& platform,
                         const ehsim::CurrentSource& source,
                         ControlSelection control, SimConfig sim_config,
                         bool warm_start);

/// A constructed-but-not-yet-run engine together with the runtime pieces
/// it references and the sweep layer cannot otherwise keep alive (the
/// workload). The platform and source stay owned by the caller and must
/// outlive the bundle. Move-only.
struct EngineBundle {
  std::unique_ptr<soc::RaytraceWorkload> workload;
  std::unique_ptr<SimEngine> engine;
};

/// run_pv_control's assembly without the run: builds the standard
/// raytrace workload, applies the same warm-start defaults, and returns
/// the ready engine instead of running it. run_pv_control is exactly
/// make_pv_engine + engine->run(); external drivers that interleave
/// several engines (sim/batch_engine.hpp) construct lanes through this.
EngineBundle make_pv_engine(const soc::Platform& platform,
                            const ehsim::CurrentSource& source,
                            ControlSelection control, SimConfig sim_config,
                            bool warm_start);

/// The irradiance-driven PV source of a solar scenario: calibrated paper
/// array + seeded weather trace (synthesised over [t_start - 60,
/// t_end + 60] on the scenario's dt grid), honouring the scenario's PV
/// evaluation mode. Exposed so registry source factories compose the
/// exact source the experiment helpers use.
ehsim::PvSource make_solar_source(const SolarScenario& scenario);

/// The weather trace make_solar_source synthesises, exposed on its own so
/// sweep workers can build it once and share it across the rows of an
/// expansion (sweep/assets.hpp). Pure function of the scenario's
/// condition, window, dt grid and seed.
pns::PiecewiseLinear solar_weather_trace(const SolarScenario& scenario);

/// make_solar_source over a prebuilt, shared weather trace -- bit-
/// identical to make_solar_source(scenario) when `trace` came from
/// solar_weather_trace(scenario). The source keeps the trace alive.
ehsim::PvSource make_solar_source(
    const SolarScenario& scenario,
    std::shared_ptr<const pns::PiecewiseLinear> trace);

/// Runs a solar-harvesting experiment with the power-neutral controller.
SimResult run_solar_power_neutral(const soc::Platform& platform,
                                  const SolarScenario& scenario,
                                  SimConfig sim_config = {},
                                  ctl::ControllerConfig controller = {});

/// Runs a solar-harvesting experiment under a named Linux governor.
SimResult run_solar_governor(const soc::Platform& platform,
                             const SolarScenario& scenario,
                             const std::string& governor_name,
                             SimConfig sim_config = {});

/// Runs a solar-harvesting experiment with a fixed operating point.
SimResult run_solar_static(const soc::Platform& platform,
                           const SolarScenario& scenario,
                           const soc::OperatingPoint& opp,
                           SimConfig sim_config = {});

/// Runs the bench-supply experiment (Fig. 11): a programmable source
/// behind `r_series` ohms drives the node.
SimResult run_controlled_supply(const soc::Platform& platform,
                                const trace::SupplyProfile& profile,
                                double r_series, SimConfig sim_config = {},
                                ctl::ControllerConfig controller = {});

/// Baseline SimConfig for solar runs: 47 mF buffer, MPP-centred 5 % band,
/// starting at the scenario's start time with the node pre-charged to the
/// array's open-circuit point.
SimConfig solar_sim_config(const SolarScenario& scenario);

/// Highest-throughput operating point whose board power fits within
/// `watts` (the platform's lowest OPP when even that does not fit). Used
/// to warm-start experiments "already in regulation", as the paper's
/// recordings of a continuously running system are.
soc::OperatingPoint balanced_opp(const soc::Platform& platform,
                                 double watts);

}  // namespace pns::sim
