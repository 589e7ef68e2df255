#include "sim/experiment.hpp"

namespace pns::sim {

namespace {

// One lambda per alternative: std::visit over an Overloaded set fails to
// compile when an alternative has no handler.
template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};

}  // namespace

ehsim::SolarCell paper_pv_array() {
  // Fig. 13 anchors: Voc ~ 6.8 V, Isc ~ 1.15 A, MPP voltage 5.3 V. The
  // fit is a pure function of these constants, so it runs once per
  // process (~0.9 ms, which would otherwise be paid by every scenario).
  static const ehsim::SolarCell cell =
      ehsim::SolarCell::calibrate(/*voc=*/6.8, /*isc=*/1.15,
                                  /*vmpp=*/5.3, /*rs=*/0.30,
                                  /*rp=*/200.0);
  return cell;
}

ehsim::SolarCell fig1_pv_cell() {
  // 250 cm^2 vs 1340 cm^2 -> area factor ~0.1866; same cell chemistry.
  return paper_pv_array().scaled_area(250.0 / 1340.0);
}

std::shared_ptr<const ehsim::PvTable> paper_pv_table() {
  static const std::shared_ptr<const ehsim::PvTable> table =
      std::make_shared<const ehsim::PvTable>(paper_pv_array());
  return table;
}

trace::ClearSky paper_clear_sky() {
  trace::ClearSkyParams p;
  p.sunrise_s = 5.0 * 3600.0;   // UK summer: ~05:00
  p.sunset_s = 21.0 * 3600.0;   // ~21:00
  p.peak_wm2 = 1000.0;
  p.shape = 1.2;
  return trace::ClearSky(p);
}

soc::OperatingPoint balanced_opp(const soc::Platform& platform,
                                 double watts) {
  soc::OperatingPoint best = platform.lowest_opp();
  double best_rate = -1.0;
  for (int nl = platform.min_cores.n_little;
       nl <= platform.max_cores.n_little; ++nl) {
    for (int nb = platform.min_cores.n_big; nb <= platform.max_cores.n_big;
         ++nb) {
      for (std::size_t fi = 0; fi < platform.opps.size(); ++fi) {
        const soc::OperatingPoint opp{fi, {nl, nb}};
        if (platform.board_power(opp, 1.0) > watts) continue;
        const double rate = platform.instruction_rate(opp, 1.0);
        if (rate > best_rate) {
          best_rate = rate;
          best = opp;
        }
      }
    }
  }
  return best;
}

ControlSelection ControlSelection::power_neutral(
    ctl::ControllerConfig config) {
  return ControlSelection{config};
}

ControlSelection ControlSelection::governed(
    std::unique_ptr<gov::Governor> governor) {
  return ControlSelection{std::move(governor)};
}

ControlSelection ControlSelection::pinned(
    std::optional<soc::OperatingPoint> opp) {
  return ControlSelection{opp};
}

EngineBundle make_pv_engine(const soc::Platform& platform,
                            const ehsim::CurrentSource& source,
                            ControlSelection control, SimConfig sim_config,
                            bool warm_start) {
  EngineBundle bundle;
  bundle.workload = std::make_unique<soc::RaytraceWorkload>(
      platform.perf.params().instr_per_frame);
  std::visit(
      Overloaded{
          [&](ctl::ControllerConfig& controller) {
            if (warm_start) {
              // Anchor the regulation window at the calibrated MPP target
              // (the paper sets Vc,target to the array's MPP of 5.3 V); the
              // window may still track all the way down when harvest is
              // scarce.
              if (controller.v_ceiling == 0.0 && sim_config.v_target > 0.0)
                controller.v_ceiling =
                    sim_config.v_target * (1.0 + sim_config.band_fraction) -
                    0.02;
              // Warm start: the paper records systems that are already in
              // regulation, so begin at the best OPP the opening harvest
              // can sustain.
              if (!sim_config.initial_opp)
                sim_config.initial_opp = balanced_opp(
                    platform, source.available_power(sim_config.t_start));
            }
            bundle.engine = std::make_unique<SimEngine>(
                platform, source, *bundle.workload, std::move(sim_config),
                controller);
          },
          [&](std::unique_ptr<gov::Governor>& governor) {
            // Stock Linux keeps every core online; governors only move
            // frequency.
            if (warm_start && !sim_config.initial_opp)
              sim_config.initial_opp = soc::OperatingPoint{
                  platform.opps.min_index(), platform.max_cores};
            bundle.engine = std::make_unique<SimEngine>(
                platform, source, *bundle.workload, std::move(sim_config),
                std::move(governor));
          },
          [&](std::optional<soc::OperatingPoint>& opp) {
            if (opp) sim_config.initial_opp = opp;
            bundle.engine = std::make_unique<SimEngine>(
                platform, source, *bundle.workload, std::move(sim_config));
          },
      },
      control.scheme);
  return bundle;
}

}  // namespace pns::sim
