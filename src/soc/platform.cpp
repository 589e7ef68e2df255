#include "soc/platform.hpp"

#include <algorithm>

#include "soc/topology.hpp"
#include "util/literals.hpp"

namespace pns::soc {

using namespace pns::literals;

CoreConfig Platform::clamp_cores(const CoreConfig& c) const {
  CoreConfig out = c;
  out.n_little = std::clamp(c.n_little, min_cores.n_little,
                            max_cores.n_little);
  out.n_big = std::clamp(c.n_big, min_cores.n_big, max_cores.n_big);
  return out;
}

bool Platform::valid_cores(const CoreConfig& c) const {
  return c.within(min_cores, max_cores);
}

OperatingPoint Platform::lowest_opp() const {
  return {opps.min_index(), min_cores};
}

OperatingPoint Platform::highest_opp() const {
  return {opps.max_index(), max_cores};
}

double Platform::board_power(const OperatingPoint& opp, double u) const {
  if (domains) return domains->board_power(opp.freq_index, u);
  return power.board_power(opp, opps, u);
}

double Platform::instruction_rate(const OperatingPoint& opp, double u) const {
  if (domains) return domains->instruction_rate(opp.freq_index, u);
  return perf.instruction_rate(opp, opps, u);
}

Platform Platform::odroid_xu4() {
  // --- DVFS rail voltage curves (V vs Hz), Exynos5422-like ---------------
  // The LITTLE rail spans ~0.9-1.20 V and the big rail ~0.9-1.25 V over
  // the paper's 0.2-1.4 GHz window.
  pns::PiecewiseLinear vdd_little({0.2_GHz, 0.6_GHz, 1.0_GHz, 1.4_GHz},
                                  {0.90, 1.00, 1.10, 1.20});
  pns::PiecewiseLinear vdd_big({0.2_GHz, 0.6_GHz, 1.0_GHz, 1.4_GHz},
                               {0.92, 1.02, 1.13, 1.25});

  // --- power calibration (Fig. 4) ----------------------------------------
  // Anchors: ~1.8 W for 1xA7 @ 0.2 GHz (board base dominates); ~2.7 W for
  // 4xA7 @ 1.4 GHz; ~7 W for 4xA7+4xA15 @ 1.4 GHz.
  PowerModelParams power{
      .board_base_w = 1.70,
      .little = {.c_eff_f = 0.11e-9,
                 .core_static_w = 6.0e-3,
                 .cluster_static_w = 30.0e-3,
                 .vdd_of_freq = vdd_little},
      .big = {.c_eff_f = 0.46e-9,
              .core_static_w = 35.0e-3,
              .cluster_static_w = 120.0e-3,
              .vdd_of_freq = vdd_big},
  };

  // --- performance calibration (Fig. 7) ----------------------------------
  // Anchors: ~0.018 FPS for 1xA7 @ 1.4 GHz; ~0.066 FPS for 4xA7 @ 1.4 GHz;
  // ~0.25 FPS for 4xA7+4xA15 @ 1.4 GHz, all at 5 samples/pixel.
  PerfModelParams perf{
      .ipc_little = 0.65,
      .ipc_big = 2.0,
      .parallel_overhead = 0.025,
      .instr_per_frame = 5.0e10,
  };

  // --- latency calibration (Fig. 10) --------------------------------------
  // Hot-plug ~8-12 ms @1.4 GHz rising to ~30-40 ms @200 MHz; DVFS 1-3 ms.
  LatencyModelParams latency{};  // defaults are the calibrated values

  return Platform{
      .name = "ODROID-XU4 (Exynos5422)",
      .opps = OppTable::paper_ladder(),
      .power = PowerModel(power),
      .perf = PerfModel(perf),
      .latency = LatencyModel(latency),
      .min_cores = {1, 0},
      .max_cores = {4, 4},
      .v_min = 4.1,
      .v_max = 5.7,
      .boot_time_s = 8.0,
      .boot_power_w = 2.2,
      .off_power_w = 0.012,
      .hotplug_stall = 0.5,
      .dvfs_stall = 0.15,
      .domains = {},
  };
}

}  // namespace pns::soc
