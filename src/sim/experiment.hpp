// The paper's experimental setup and the one engine assembly.
//
// The constants (calibrated PV array, clear-sky day) describe the paper's
// validation rig; make_pv_engine turns a platform, a current source and a
// control scheme into a ready SimEngine. Scenarios are declared with
// sweep::ScenarioSpec and run by sweep::run_scenario, which resolves the
// source and control through the registries and assembles here.
#pragma once

#include <memory>
#include <optional>
#include <variant>

#include "core/controller.hpp"
#include "ehsim/solar_cell.hpp"
#include "ehsim/sources.hpp"
#include "governors/governor.hpp"
#include "sim/engine.hpp"
#include "trace/irradiance.hpp"

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
/// PV sources share this instead of rebuilding the table per run.
std::shared_ptr<const ehsim::PvTable> paper_pv_table();

/// Default clear-sky model for the paper's test days (UK summer day).
trace::ClearSky paper_clear_sky();

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

/// A constructed-but-not-yet-run engine together with the runtime pieces
/// it references and the sweep layer cannot otherwise keep alive (the
/// workload). The platform and source stay owned by the caller and must
/// outlive the bundle. Move-only.
struct EngineBundle {
  std::unique_ptr<soc::RaytraceWorkload> workload;
  std::unique_ptr<SimEngine> engine;
};

/// The one engine assembly (behind sweep::run_scenario and every lockstep
/// lane of sim/batch_engine.hpp): builds the standard raytrace workload,
/// applies the control scheme's warm-start defaults (only when
/// `warm_start`; the shadowing scenarios start from the spec's explicit
/// operating point) and returns the ready, not yet run, engine over
/// `source`:
///   * power-neutral + warm_start: anchors controller.v_ceiling just
///     above the regulation target and starts at the best OPP the opening
///     harvest can sustain (balanced_opp) -- the paper records systems
///     already in regulation.
///   * governor + warm_start: starts at the lowest frequency with every
///     core online (stock Linux never hot-plugs).
///   * pinned: sets config.initial_opp to the pinned point when one is
///     given.
EngineBundle make_pv_engine(const soc::Platform& platform,
                            const ehsim::CurrentSource& source,
                            ControlSelection control, SimConfig sim_config,
                            bool warm_start);

/// Highest-throughput operating point whose board power fits within
/// `watts` (the platform's lowest OPP when even that does not fit). Used
/// to warm-start experiments "already in regulation", as the paper's
/// recordings of a continuously running system are.
soc::OperatingPoint balanced_opp(const soc::Platform& platform,
                                 double watts);

}  // namespace pns::sim
