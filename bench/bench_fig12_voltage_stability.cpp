// Fig. 12 -- "VC over time whilst testing the system under full sun
// conditions."
//
// Six hours (10:30-16:30) of full-sun harvesting through the PV array
// with the power-neutral controller. The paper reports VC within +/-5 %
// of the 5.3 V MPP target for 93.3 % of the test. Prints half-hourly VC
// rows and the in-band statistic.
#include <cstdio>
#include <iostream>

#include "sweep/scenario.hpp"
#include "util/table.hpp"

int main() {
  using namespace pns;

  sweep::ScenarioSpec spec;  // full sun, 10:30-16:30, 47 mF, 5.3 V target
  spec.seed = 403155;  // the paper's dataset DOI suffix, for fun
  spec.record_series = true;
  spec.record_interval_s = 5.0;
  // The paper's recording starts mid-day on an already-running system;
  // begin at a near-balanced OPP instead of cold-starting at the bottom.
  spec.initial_opp = soc::OperatingPoint{5, {4, 2}};

  const auto r = sweep::run_scenario(spec);
  const double v_target = r.metrics.v_target;
  std::printf("Fig. 12: VC under full sun, 10:30-16:30, 47 mF buffer, "
              "target %.1f V +/- 5%%\n\n", v_target);

  ConsoleTable traj({"time", "VC (V)", "in band?"});
  const double lo = v_target * 0.95, hi = v_target * 1.05;
  for (double t = spec.t_start; t <= spec.t_end; t += 1800.0) {
    const double v = r.series.vc.at(t);
    traj.add_row({fmt_hhmm(t), fmt_double(v, 3),
                  (v >= lo && v <= hi) ? "yes" : "NO"});
  }
  traj.print(std::cout);

  const auto& m = r.metrics;
  std::printf("\ntime within +/-5%% of target: %.1f %%  (paper: 93.3 %%)\n",
              100.0 * m.fraction_in_band());
  std::printf("mean VC %.3f V, std-dev %.3f V, range [%.2f, %.2f] V\n",
              m.vc_stats.mean(), m.vc_stats.stddev(),
              r.series.vc.min_value(), r.series.vc.max_value());
  std::printf("brownouts: %zu (paper: none)\n", m.brownouts);
  std::printf("controller interrupts over 6 h: %zu\n",
              r.controller.interrupts);
  std::printf(
      "\nshape check: the controller holds the 47 mF node within the 5%%\n"
      "band for the overwhelming majority of the six-hour window without\n"
      "any battery or MPPT converter.\n");
  return 0;
}
