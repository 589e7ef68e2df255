// Built-in integrator kinds (provider domain: ehsim/ + sim/).
//
// Two integration engines drive the storage-node ODE out of the box:
//   rk23    the original adaptive Bogacki-Shampine stepper with the
//           clamped per-step error rule and bisection event roots --
//           the default, bit-identical to every published bench/CSV
//   rk23pi  the second-generation engine: PI step-size control
//           (ehsim/stepper_pi), dense-output cubic event localisation
//           (ehsim/dense_output) and steady-state coasting across
//           provably quiescent spans (sim/engine try_coast)
// plus rk23simd, the rk23pi numerics executed in lockstep batches.
// All accept numeric overrides so a sweep can trade accuracy against
// wall-clock from the command line: `--integrator rk23pi:rtol=1e-05`.
// A new engine registers the same way:
// IntegratorRegistry::instance().add({kind, summary, params, apply}).
#include "sweep/registry.hpp"

namespace pns::sweep {

namespace {

/// Shared numeric overrides of every kind; absent keys leave the
/// scenario's SimConfig numerics in force.
void apply_numeric_overrides(const ParamMap& params, sim::SimConfig& cfg) {
  cfg.rel_tol = params.get_double("rtol", cfg.rel_tol);
  cfg.abs_tol = params.get_double("atol", cfg.abs_tol);
  cfg.max_ode_step_s = params.get_double("max_step", cfg.max_ode_step_s);
}

/// The second-generation numerics shared by rk23pi and rk23simd: PI
/// step control, dense-output event roots, coasting, tick elision.
/// rk23simd must stay *bit-identical* to rk23pi at every width, so the
/// two kinds resolve their SimConfig through this one function -- a
/// numeric default that drifted between them would silently break the
/// parity contract the differential harness enforces.
void apply_pi_family(const ParamMap& params, sim::SimConfig& cfg) {
  // Wider stop points + a looser (but still sub-mV) tolerance: the
  // PI controller holds the step at whatever the tolerance admits,
  // and events -- not the segment grid -- bound the accuracy of
  // the control interaction, which stays exactly localised.
  cfg.max_segment_s = params.get_double("seg", 0.25);
  cfg.max_ode_step_s = params.get_double("max_step", cfg.max_segment_s);
  cfg.rel_tol = params.get_double("rtol", 1e-4);
  cfg.abs_tol = params.get_double("atol", cfg.abs_tol);
  cfg.step_control = ehsim::StepControl::kPi;
  cfg.event_localization = ehsim::EventLocalization::kDenseRoot;
  cfg.coast = params.get_bool("coast", true);
  cfg.coast_dv_tol_v = params.get_double("coast_tol", 1e-4);
  cfg.gov_tick_elide = params.get_bool("elide", true);
}

/// The ParamInfo list shared by the PI-family kinds.
std::vector<ParamInfo> pi_family_params() {
  return {
      {"rtol", "double", "0.0001",
       "relative tolerance (~0.5 mV local error on a 5 V node)"},
      {"atol", "double", "", "absolute tolerance (default: scenario's)"},
      {"seg", "double", "0.25",
       "outer-loop stop-point spacing (s); also the metric sampling "
       "granularity"},
      {"max_step", "double", "",
       "step-size ceiling in seconds (default: the segment span)"},
      {"coast", "bool", "true",
       "steady-state coasting across quiescent spans"},
      {"coast_tol", "double", "0.0001",
       "coasting drift budget on VC (volts)"},
      {"elide", "bool", "true",
       "governor-tick elision across provable no-op ticks"},
  };
}

}  // namespace

void IntegratorAxis::register_builtins(IntegratorRegistry& registry) {
  registry.add(IntegratorEntry{
      "rk23",
      // `pns_sweep list` derives the "(default)" marker from
      // IntegratorAxis::default_kind; don't bake it into the description.
      "adaptive RK2(3), clamped step rule + bisection events",
      {
          {"rtol", "double", "", "relative tolerance (default: scenario's)"},
          {"atol", "double", "", "absolute tolerance (default: scenario's)"},
          {"max_step", "double", "",
           "step-size ceiling in seconds (default: scenario's)"},
      },
      [](const ScenarioSpec&, const ParamMap& params, sim::SimConfig& cfg) {
        apply_numeric_overrides(params, cfg);
        cfg.step_control = ehsim::StepControl::kClamped;
        cfg.event_localization = ehsim::EventLocalization::kBisection;
        cfg.coast = false;
      },
      /*execution_only=*/{},
      /*batch_capable=*/false,
  });

  registry.add(IntegratorEntry{
      "rk23pi",
      "RK2(3) + PI step control, dense-output events, coasting",
      pi_family_params(),
      [](const ScenarioSpec&, const ParamMap& params, sim::SimConfig& cfg) {
        apply_pi_family(params, cfg);
      },
      /*execution_only=*/{},
      /*batch_capable=*/false,
  });

  // rk23pi's numerics executed in lockstep batches: the runner groups
  // adjacent compatible rows into work units of up to `width` lanes, one
  // BatchEngine each, and rounds with two or more lanes in lockstep stage
  // across lanes -- RK stages and error norms lane by lane, exact-mode PV
  // Newton solves interleaved (ehsim/solar_cell_simd). Output bytes are
  // independent of the width and of how rows land in batches, so `width`
  // is an execution-only key (journals interchange across widths;
  // width=1 degenerates to plain rk23pi).
  IntegratorEntry simd{
      "rk23simd",
      "rk23pi numerics, lockstep batches (bit-identical to rk23pi)",
      pi_family_params(),
      [](const ScenarioSpec&, const ParamMap& params, sim::SimConfig& cfg) {
        apply_pi_family(params, cfg);
      },
      /*execution_only=*/{"width"},
      /*batch_capable=*/true,
      /*batch_simd=*/true,
  };
  simd.params.push_back(
      {"width", "uint", "8",
       "max lanes per lockstep batch (execution strategy only; every "
       "width produces the same bytes)"});
  registry.add(std::move(simd));
  // "rk23batch" named the unpacked lockstep kind before the two round
  // drivers merged; it resolves to rk23simd under its own spelling, so
  // its spec strings, command lines and journal identities keep working.
  registry.alias("rk23batch", "rk23simd");
}

}  // namespace pns::sweep
