// Solar-day simulation: run the power-neutral system through a realistic
// harvesting day with selectable weather, and optionally dump the full
// traces to CSV for plotting.
//
// Usage: ./examples/solar_day [full-sun|partial-sun|cloud|hail]
//                             [hours] [seed] [out.csv] [start-hour]
//
// Defaults reproduce the paper's Fig. 12 setting: full sun, 10:30-16:30.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "sweep/scenario.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pns;

  sweep::ScenarioSpec spec;
  if (argc > 1) {
    const auto condition = trace::weather_condition_from_string(argv[1]);
    if (!condition) {
      std::fprintf(stderr, "unknown condition '%s' (valid:", argv[1]);
      for (auto c : trace::all_weather_conditions())
        std::fprintf(stderr, " %s", trace::to_string(c));
      std::fprintf(stderr, ")\n");
      return 2;
    }
    spec.condition = *condition;
  }
  const double hours = argc > 2 ? std::atof(argv[2]) : 6.0;
  const double start_hour = argc > 5 ? std::atof(argv[5]) : 10.5;
  spec.t_start = start_hour * 3600.0;
  spec.t_end = spec.t_start + hours * 3600.0;
  if (argc > 3) spec.seed = std::strtoull(argv[3], nullptr, 10);
  spec.record_series = true;
  spec.record_interval_s = 1.0;

  std::printf("simulating %s, %.1f h from %s, seed %llu...\n",
              to_string(spec.condition), hours,
              fmt_hhmm(spec.t_start).c_str(),
              static_cast<unsigned long long>(spec.seed));
  const auto r = sweep::run_scenario(spec);
  const auto& m = r.metrics;

  ConsoleTable table({"metric", "value"});
  table.add_row({"condition", to_string(spec.condition)});
  table.add_row({"window", fmt_hhmm(m.t_start) + " - " + fmt_hhmm(m.t_end)});
  table.add_row({"brownouts", std::to_string(m.brownouts)});
  table.add_row({"lifetime", fmt_mmss(m.lifetime_s)});
  table.add_row({"time in +/-5% band",
                 fmt_double(100.0 * m.fraction_in_band(), 1) + " %"});
  table.add_row({"mean VC", fmt_double(m.vc_stats.mean(), 3) + " V"});
  table.add_row({"VC std-dev", fmt_double(m.vc_stats.stddev(), 3) + " V"});
  table.add_row({"energy harvested",
                 fmt_double(m.energy_harvested_j / 3600.0, 2) + " Wh"});
  table.add_row({"energy consumed",
                 fmt_double(m.energy_consumed_j / 3600.0, 2) + " Wh"});
  table.add_row(
      {"instructions", fmt_double(m.instructions / 1e9, 1) + " G"});
  table.add_row({"renders/min", fmt_double(m.renders_per_min(), 4)});
  table.add_row({"controller interrupts",
                 std::to_string(r.controller.interrupts)});
  table.add_row({"ctrl CPU overhead",
                 fmt_double(100.0 * r.controller.cpu_overhead(m.duration()),
                            3) +
                     " %"});
  table.print(std::cout, "solar day summary");

  if (argc > 4) {
    const std::string path = argv[4];
    const bool ok = write_series_csv(
        path, {{"vc", &r.series.vc},
               {"freq_hz", &r.series.freq_hz},
               {"n_little", &r.series.n_little},
               {"n_big", &r.series.n_big},
               {"p_consumed", &r.series.p_consumed},
               {"p_available", &r.series.p_available}});
    std::printf("%s traces to %s\n", ok ? "wrote" : "FAILED to write",
                path.c_str());
    return ok ? 0 : 1;
  }
  return 0;
}
