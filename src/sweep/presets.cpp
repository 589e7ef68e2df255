#include "sweep/presets.hpp"

#include <utility>

namespace pns::sweep {

ctl::ControllerConfig fig6_controller_config() {
  ctl::ControllerConfig cfg;
  cfg.v_width = 0.2;
  cfg.v_q = 0.080;
  cfg.alpha = 0.10;
  cfg.beta = 0.12;
  return cfg;
}

ScenarioSpec fig6_shadowing_base() {
  ScenarioSpec base;
  base.source.kind = "shadow";
  base.shadow.t_event_s = 2.0;
  base.shadow.t_fall_s = 0.4;
  base.shadow.hold_s = 3.2;
  base.shadow.t_rise_s = 0.4;
  base.shadow.depth = 0.40;
  base.t_start = 0.0;
  base.t_end = 10.0;
  base.vc0 = 5.3;
  base.enable_reboot = false;
  base.initial_opp = soc::OperatingPoint{4, {4, 2}};  // ~4.5 W draw
  return base;
}

SweepSpec table2_sweep(double minutes, std::vector<std::uint64_t> seeds) {
  SweepSpec sw;
  // A late-afternoon hour: the sun is well past zenith, so the margin
  // over the powersave floor is moderate -- the regime the paper's +69 %
  // figure reflects.
  sw.base.condition = trace::WeatherCondition::kFullSun;
  sw.base.t_start = 16.5 * 3600.0;
  sw.base.t_end = sw.base.t_start + minutes * 60.0;
  sw.base.record_series = false;
  sw.base.enable_reboot = false;  // lifetime = time to first brownout
  for (const char* name : {"performance", "ondemand", "interactive",
                           "conservative", "powersave"})
    sw.controls.push_back(ControlSpec::linux_governor(name));
  sw.controls.push_back(ControlSpec::power_neutral());
  sw.seeds = std::move(seeds);
  return sw;
}

SweepSpec capacitance_sweep(double minutes) {
  SweepSpec sw;
  sw.base.t_start = 12.0 * 3600.0;
  sw.base.t_end = sw.base.t_start + minutes * 60.0;
  sw.base.control = ControlSpec::power_neutral();
  sw.capacitances_f = {10e-3, 22e-3, 47e-3, 100e-3, 220e-3};
  sw.conditions = {trace::WeatherCondition::kFullSun,
                   trace::WeatherCondition::kPartialSun,
                   trace::WeatherCondition::kCloud};
  return sw;
}

SweepSpec fig6_depth_sweep() {
  SweepSpec sw;
  sw.base = fig6_shadowing_base();
  sw.controls = {ControlSpec::static_opp_point(*sw.base.initial_opp),
                 ControlSpec::power_neutral(fig6_controller_config())};
  sw.shadow_depths = {0.2, 0.3, 0.4, 0.5};
  return sw;
}

SweepSpec quick_sweep() { return table2_sweep(2.0, {42, 43}); }

const std::vector<SweepPreset>& sweep_presets() {
  static const std::vector<SweepPreset> presets = {
      {"table2", "power-management schemes x 3 seeds (18 scenarios)",
       [](double minutes) { return table2_sweep(minutes, {42, 43, 44}); }},
      {"capacitance", "buffer sizes x weather, PNS controller",
       [](double minutes) { return capacitance_sweep(minutes); }},
      {"fig6", "shadowing depths x {static, controlled}",
       [](double) { return fig6_depth_sweep(); }},
      {"weather", "weather conditions x control schemes",
       [](double minutes) { return weather_sweep(minutes); }},
      {"quick", "CI smoke: table2 schemes, 2-minute window, 2 seeds",
       [](double) { return quick_sweep(); }},
  };
  return presets;
}

const SweepPreset* find_sweep_preset(const std::string& name) {
  for (const auto& p : sweep_presets())
    if (p.name == name) return &p;
  return nullptr;
}

SweepSpec weather_sweep(double minutes) {
  SweepSpec sw;
  sw.base.t_start = 12.0 * 3600.0;
  sw.base.t_end = sw.base.t_start + minutes * 60.0;
  sw.conditions = {trace::WeatherCondition::kFullSun,
                   trace::WeatherCondition::kPartialSun,
                   trace::WeatherCondition::kCloud,
                   trace::WeatherCondition::kHail};
  sw.controls = {ControlSpec::power_neutral(),
                 ControlSpec::linux_governor("ondemand"),
                 ControlSpec::linux_governor("powersave")};
  return sw;
}

}  // namespace pns::sweep
