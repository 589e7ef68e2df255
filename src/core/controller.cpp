#include "core/controller.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace pns::ctl {

std::vector<pns::ParamInfo> controller_params() {
  return {
      {"v_width", "double", "0.144", "tracking window width Vwidth (V)"},
      {"v_q", "double", "0.0479", "threshold shift per crossing Vq (V)"},
      {"alpha", "double", "0.12", "hot-plug discharge-rate gain (V/s)"},
      {"beta", "double", "0.479", "hot-plug charge-rate gain (V/s)"},
      {"v_ceiling", "double", "0",
       "window-top anchor (V); 0 defers to platform/monitor limits"},
      {"ordering", "string", "core-first",
       "transition ordering: core-first or freq-first"},
      {"isr_cpu_time", "double", "0.00015",
       "CPU time per ISR execution (s, Fig. 15 overhead)"},
  };
}

namespace {

soc::OrderingPolicy ordering_from_string(const std::string& text) {
  if (text == "core-first" || text == "core_first")
    return soc::OrderingPolicy::kCoreFirst;
  if (text == "freq-first" || text == "freq_first" || text == "dvfs-first" ||
      text == "dvfs_first")
    return soc::OrderingPolicy::kFreqFirst;
  throw ParamError("param 'ordering': expected core-first or freq-first, "
                   "got '" + text + "'");
}

}  // namespace

ControllerConfig controller_config_from_params(const pns::ParamMap& params,
                                               ControllerConfig base) {
  ControllerConfig cfg = base;
  cfg.v_width = params.get_double("v_width", cfg.v_width);
  cfg.v_q = params.get_double("v_q", cfg.v_q);
  cfg.alpha = params.get_double("alpha", cfg.alpha);
  cfg.beta = params.get_double("beta", cfg.beta);
  cfg.v_ceiling = params.get_double("v_ceiling", cfg.v_ceiling);
  if (const std::string* o = params.find("ordering"))
    cfg.ordering = ordering_from_string(*o);
  cfg.isr_cpu_time_s = params.get_double("isr_cpu_time", cfg.isr_cpu_time_s);
  return cfg;
}

pns::ParamMap controller_config_to_params(const ControllerConfig& cfg,
                                          const ControllerConfig& reference) {
  pns::ParamMap params;
  if (cfg.v_width != reference.v_width)
    params.set_double("v_width", cfg.v_width);
  if (cfg.v_q != reference.v_q) params.set_double("v_q", cfg.v_q);
  if (cfg.alpha != reference.alpha) params.set_double("alpha", cfg.alpha);
  if (cfg.beta != reference.beta) params.set_double("beta", cfg.beta);
  if (cfg.v_ceiling != reference.v_ceiling)
    params.set_double("v_ceiling", cfg.v_ceiling);
  if (cfg.ordering != reference.ordering)
    params.set("ordering", soc::to_string(cfg.ordering));
  if (cfg.isr_cpu_time_s != reference.isr_cpu_time_s)
    params.set_double("isr_cpu_time", cfg.isr_cpu_time_s);
  return params;
}

PowerNeutralController::PowerNeutralController(const soc::Platform& platform,
                                               hw::VoltageMonitor& monitor,
                                               ControllerConfig config)
    : platform_(&platform),
      monitor_(&monitor),
      config_(config),
      tracker_(ThresholdConfig{
          .v_width = config.v_width,
          .v_q = config.v_q,
          // Track only within the board's safe window, and never ask the
          // monitor for a threshold it cannot express.
          .v_floor = std::max(platform.v_min,
                              monitor.low_channel().min_threshold()),
          .v_ceil = std::min({platform.v_max,
                              monitor.high_channel().max_threshold(),
                              config.v_ceiling > 0.0
                                  ? config.v_ceiling
                                  : platform.v_max}),
      }),
      hotplug_(HotplugParams{config.alpha, config.beta}),
      planner_(platform) {}

void PowerNeutralController::calibrate(double vc, double t) {
  tracker_.calibrate(vc);
  program_monitor(vc);
  last_crossing_t_ = t;
  last_direction_ = -1;
}

void PowerNeutralController::program_monitor(double vc_now) {
  monitor_->set_thresholds(tracker_.v_low(), tracker_.v_high(), vc_now);
  ++stats_.threshold_moves;
  // Two digipot SPI writes per move.
  stats_.isr_busy_s += monitor_->low_channel().program_time() +
                       monitor_->high_channel().program_time();
}

std::vector<soc::TransitionStep> PowerNeutralController::on_interrupt(
    hw::MonitorEdge edge, double t, const soc::OperatingPoint& current) {
  // Only genuine excursions outside the window trigger a response; the
  // re-entry edges that follow a threshold shift are ignored.
  if (edge != hw::MonitorEdge::kLowFalling &&
      edge != hw::MonitorEdge::kHighRising)
    return {};

  ++stats_.interrupts;
  stats_.isr_busy_s += config_.isr_cpu_time_s;

  const ScaleDirection direction = edge == hw::MonitorEdge::kLowFalling
                                       ? ScaleDirection::kDown
                                       : ScaleDirection::kUp;

  // --- eq. 3: slope estimate from the crossing interval -----------------
  // The estimate dVC/dt ~ Vq/tau is only meaningful when the voltage
  // actually travelled Vq in one direction since the last crossing, i.e.
  // for *consecutive same-direction* crossings (the window tracking a
  // sustained 'macro' trend). A crossing that alternates direction is the
  // stationary limit cycle of quantised power levels -- 'micro' ripple by
  // construction -- and is handled by DVFS alone.
  const double tau_s = t - last_crossing_t_;
  const bool same_direction =
      last_direction_ == static_cast<int>(direction);
  last_crossing_t_ = t;
  last_direction_ = static_cast<int>(direction);

  // When the window is pinned at its clamp even that premise fails: the
  // thresholds did not move Vq between events (e.g. VC idles beyond the
  // window right after a reboot charged the node towards Voc). Degrade to
  // pure linear control there: DVFS first, one LITTLE core per event only
  // once the ladder is exhausted.
  const bool pinned = direction == ScaleDirection::kUp
                          ? tracker_.at_ceiling()
                          : tracker_.at_floor();

  // --- DVFS response (linear control) ------------------------------------
  soc::OperatingPoint target = current;
  target.freq_index =
      dvfs_.next_index(platform_->opps, current.freq_index, direction);

  // --- core hot-plug response (derivative control, eq. 2) ----------------
  if (!pinned && same_direction) {
    const CoreScale scale = hotplug_.decide(tau_s, config_.v_q, direction);
    target.cores = hotplug_.apply(*platform_, current.cores, scale);
  } else if (pinned && target.freq_index == current.freq_index) {
    CoreScale linear;
    linear.s_little = direction == ScaleDirection::kUp ? 1 : -1;
    target.cores = hotplug_.apply(*platform_, current.cores, linear);
  }

  // --- threshold update + digipot reprogramming --------------------------
  // At the crossing instant VC equals the threshold that fired; use it to
  // seed the comparators after reprogramming.
  const double vc_at_crossing = direction == ScaleDirection::kDown
                                    ? tracker_.v_low()
                                    : tracker_.v_high();
  if (direction == ScaleDirection::kDown) {
    tracker_.shift_down();
  } else {
    tracker_.shift_up();
  }
  program_monitor(vc_at_crossing);

  if (target == current) return {};

  auto plan = planner_.plan(current, target, config_.ordering);
  for (const auto& step : plan) {
    if (step.kind == soc::TransitionKind::kDvfs) {
      ++stats_.dvfs_steps;
    } else {
      ++stats_.hotplug_steps;
      const bool is_big = step.from.cores.n_big != step.to.cores.n_big;
      (is_big ? stats_.big_ops : stats_.little_ops) += 1;
    }
  }
  return plan;
}

}  // namespace pns::ctl
