// Fig. 11 -- "System performance using a controlled variable voltage
// supply."
//
// A bench supply is ramped and stepped by hand; the system must modulate
// frequency for minor fluctuations (point 'A' in the paper) and shed
// cores in addition to DVFS for the sudden reduction (point 'B'). Uses
// the paper's deliberately large illustration parameters Vwidth=335 mV,
// Vq=190 mV, alpha=0.238 V/s, beta=0.633 V/s.
#include <cstdio>
#include <iostream>

#include "sim/experiment.hpp"
#include "trace/supply_profiles.hpp"
#include "util/table.hpp"

int main() {
  using namespace pns;
  const soc::Platform board = soc::Platform::odroid_xu4();

  // A bench-profile echoing Fig. 11: gentle wiggles ('A'), a sudden deep
  // step ('B'), recovery, and a slow ramp down.
  trace::SupplyProfile profile(5.4);
  profile.hold(20.0)
      .sine(0.15, 10.0, 30.0)      // minor fluctuations 'A'
      .hold(10.0)
      .ramp_to(4.6, 1.5)           // sudden reduction 'B'
      .hold(25.0)
      .ramp_to(5.5, 10.0)          // recovery
      .hold(20.0)
      .ramp_to(4.9, 15.0)          // slow decline
      .hold(10.0);

  sim::SimConfig cfg;
  cfg.t_start = 0.0;
  cfg.t_end = profile.duration();
  cfg.vc0 = 5.4;
  cfg.v_target = 0.0;
  cfg.record_interval_s = 0.1;
  cfg.initial_opp = soc::OperatingPoint{3, {4, 0}};

  ctl::ControllerConfig ctl_cfg;  // the paper's Fig. 11 parameters
  ctl_cfg.v_width = 0.335;
  ctl_cfg.v_q = 0.190;
  ctl_cfg.alpha = 0.238;
  ctl_cfg.beta = 0.633;

  std::printf(
      "Fig. 11: controlled variable supply, Vwidth=335 mV Vq=190 mV "
      "alpha=0.238 beta=0.633\n\n");
  // The bench supply sits behind 0.45 ohm of series resistance.
  const ehsim::ControlledSupply supply(profile.as_function(), 0.45);
  const auto r =
      sim::make_pv_engine(board, supply,
                          sim::ControlSelection::power_neutral(ctl_cfg), cfg,
                          /*warm_start=*/false)
          .engine->run();

  ConsoleTable traj({"t (s)", "Vsupply (V)", "VC (V)", "f (MHz)",
                     "LITTLE", "total cores"});
  for (double t = 0.0; t <= cfg.t_end; t += 5.0) {
    const double nl = r.series.n_little.at(t);
    const double nb = r.series.n_big.at(t);
    traj.add_row({fmt_double(t, 0), fmt_double(profile.at(t), 2),
                  fmt_double(r.series.vc.at(t), 2),
                  fmt_double(r.series.freq_hz.at(t) / 1e6, 0),
                  fmt_double(nl, 0), fmt_double(nl + nb, 0)});
  }
  traj.print(std::cout);

  std::printf("\ninterrupts: %zu, DVFS steps: %zu, hot-plug ops: %zu "
              "(big %zu / LITTLE %zu)\n",
              r.controller.interrupts, r.controller.dvfs_steps,
              r.controller.hotplug_steps, r.controller.big_ops,
              r.controller.little_ops);
  std::printf("brownouts: %zu\n", r.metrics.brownouts);
  std::printf(
      "\nshape check (paper Fig. 11): frequency moves far more often than\n"
      "cores -- minor wiggles are absorbed by DVFS alone ('A'), while the\n"
      "sudden drop additionally unplugs cores ('B'), i.e. DVFS steps\n"
      "should outnumber hot-plug operations several-fold above.\n");
  return 0;
}
