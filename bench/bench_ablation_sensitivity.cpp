// Ablation -- one-at-a-time sensitivity of the controller parameters.
//
// DESIGN.md calls out the four tunables (Vwidth, Vq, alpha, beta) as the
// design's key degrees of freedom. This bench perturbs each one over a
// 4x range around the paper optimum while holding the others fixed and
// reports the voltage-stability objective, exposing which knobs the
// design is actually sensitive to.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "opt/objective.hpp"
#include "util/table.hpp"

int main() {
  using namespace pns;
  const soc::Platform board = soc::Platform::odroid_xu4();

  sweep::ScenarioSpec spec;
  spec.platform = board;
  spec.condition = trace::WeatherCondition::kPartialSun;
  spec.t_start = 12.0 * 3600.0;
  spec.t_end = spec.t_start + 600.0;
  spec.seed = 17;
  const opt::SweepStabilityObjective objective(spec);

  const opt::ParamSet base{0.144, 0.0479, 0.120, 0.479};
  const std::vector<double> scales{0.5, 0.71, 1.0, 1.41, 2.0};

  // One batch: the baseline, then each scale with each parameter scaled
  // alone (row-major, matching the table below).
  std::vector<opt::ParamSet> candidates{base};
  for (double k : scales) {
    for (double opt::ParamSet::*axis :
         {&opt::ParamSet::v_width, &opt::ParamSet::v_q,
          &opt::ParamSet::alpha, &opt::ParamSet::beta}) {
      opt::ParamSet p = base;
      p.*axis *= k;
      candidates.push_back(p);
    }
  }
  const std::vector<double> scores = objective(candidates);

  std::printf("Ablation: one-at-a-time parameter sensitivity "
              "(time-in-band %%, 10-minute partial sun)\n\n");

  ConsoleTable table({"scale", "Vwidth only", "Vq only", "alpha only",
                      "beta only"});
  for (std::size_t row = 0; row < scales.size(); ++row) {
    std::vector<std::string> cells{fmt_double(scales[row], 2)};
    for (std::size_t col = 0; col < 4; ++col) {
      const double s = scores[1 + 4 * row + col];
      cells.push_back(s < 0.0 ? std::string("invalid")
                              : fmt_double(100.0 * s, 1));
    }
    table.add_row(cells);
  }
  table.print(std::cout);

  std::printf("\nbaseline (paper optimum): %.1f %% in band\n",
              100.0 * scores[0]);
  std::printf(
      "\nreading: stability degrades fastest when Vq grows towards Vwidth\n"
      "(threshold leapfrogging) or when beta falls towards alpha (every\n"
      "crossing sheds a big core, over-reacting to micro variability) --\n"
      "matching the paper's reasoning for beta >> alpha and Vq << Vwidth.\n");
  return 0;
}
