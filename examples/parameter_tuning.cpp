// Controller parameter tuning: the Section III study as a reusable tool.
//
// Explores (Vwidth, Vq, alpha, beta) with random search, then refines the
// best region with a local grid, maximising the fraction of time the node
// voltage stays within 5 % of the MPP target.
//
// Usage: ./examples/parameter_tuning [random_iterations] [seed]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "opt/grid_search.hpp"
#include "opt/objective.hpp"
#include "opt/random_search.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pns;

  const std::size_t iterations = argc > 1 ? std::atoi(argv[1]) : 40;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                      : 1234;

  const soc::Platform board = soc::Platform::odroid_xu4();
  // Batch objective: each search stage's candidates are evaluated through
  // sweep::SweepRunner in parallel.
  const auto objective = opt::SweepStabilityObjective::standard(board, seed);

  // Phase 1: global random exploration (log-uniform).
  opt::RandomSearchSpec spec;
  spec.iterations = iterations;
  spec.seed = seed;
  std::printf("phase 1: random search, %zu evaluations...\n", iterations);
  const auto coarse = opt::random_search(objective, spec);

  // Phase 2: local grid refinement around the best random point.
  const auto& b = coarse.best;
  opt::GridSpec grid{
      .v_width = {b.v_width * 0.7, b.v_width, b.v_width * 1.4},
      .v_q = {b.v_q * 0.7, b.v_q, b.v_q * 1.4},
      .alpha = {b.alpha * 0.7, b.alpha, b.alpha * 1.4},
      .beta = {b.beta * 0.7, b.beta, b.beta * 1.4},
  };
  std::printf("phase 2: grid refinement, %zu evaluations...\n", grid.size());
  const auto fine = opt::grid_search(objective, grid);

  ConsoleTable table({"stage", "Vwidth (mV)", "Vq (mV)", "alpha (V/s)",
                      "beta (V/s)", "time-in-band"});
  auto add = [&](const char* stage, const opt::ParamSet& p, double score) {
    table.add_row({stage, fmt_double(p.v_width * 1e3, 1),
                   fmt_double(p.v_q * 1e3, 1), fmt_double(p.alpha, 3),
                   fmt_double(p.beta, 3),
                   fmt_double(100.0 * score, 1) + " %"});
  };
  add("random best", coarse.best, coarse.best_score);
  add("grid refined", fine.best, fine.best_score);
  add("paper optimum", {0.144, 0.0479, 0.120, 0.479},
      objective(std::vector<opt::ParamSet>{{0.144, 0.0479, 0.120, 0.479}})[0]);
  table.print(std::cout, "controller parameter tuning");

  std::printf(
      "\nthe paper's Simulink study selected Vwidth=144 mV, Vq=47.9 mV,\n"
      "alpha=0.120 V/s, beta=0.479 V/s with the same objective.\n");
  return 0;
}
