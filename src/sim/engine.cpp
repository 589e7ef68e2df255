#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "soc/topology.hpp"
#include "util/contracts.hpp"

namespace pns::sim {
namespace {

// Event tags used with the integrator.
constexpr int kTagLow = 1;       // node fell through the LOW trip
constexpr int kTagHigh = 2;      // node rose through the HIGH trip
constexpr int kTagBrownout = 3;  // node fell through v_min
constexpr int kTagRecover = 4;   // node rose through the reboot level

using gov::kTickEps;

}  // namespace

SimEngine::SimEngine(const soc::Platform& platform,
                     const ehsim::CurrentSource& source,
                     soc::Workload& workload, SimConfig config,
                     ctl::ControllerConfig controller_config)
    : SimEngine(platform, source, workload, std::move(config),
                &controller_config, nullptr) {}

SimEngine::SimEngine(const soc::Platform& platform,
                     const ehsim::CurrentSource& source,
                     soc::Workload& workload, SimConfig config,
                     std::unique_ptr<gov::Governor> governor)
    : SimEngine(platform, source, workload, std::move(config), nullptr,
                std::move(governor)) {}

SimEngine::SimEngine(const soc::Platform& platform,
                     const ehsim::CurrentSource& source,
                     soc::Workload& workload, SimConfig config)
    : SimEngine(platform, source, workload, std::move(config), nullptr,
                nullptr) {}

SimEngine::SimEngine(const soc::Platform& platform,
                     const ehsim::CurrentSource& source,
                     soc::Workload& workload, SimConfig config,
                     ctl::ControllerConfig* controller_config,
                     std::unique_ptr<gov::Governor> governor)
    : platform_(&platform),
      source_(&source),
      workload_(&workload),
      cfg_(std::move(config)),
      soc_(platform, cfg_.initial_opp.value_or(platform.lowest_opp())),
      planner_(platform),
      governor_(std::move(governor)),
      load_(*this),
      circuit_(*source_, load_,
               ehsim::Capacitor{cfg_.capacitance_f, cfg_.cap_leak_ohm}),
      integrator_(circuit_,
                  ehsim::Rk23Options{
                      .rel_tol = cfg_.rel_tol,
                      .abs_tol = cfg_.abs_tol,
                      .max_step = cfg_.max_ode_step_s,
                      .event_tol = 1e-7,
                      .step_control = cfg_.step_control,
                      .event_localization = cfg_.event_localization}) {
  PNS_EXPECTS(cfg_.t_end > cfg_.t_start);
  PNS_EXPECTS(cfg_.capacitance_f > 0.0);
  PNS_EXPECTS(cfg_.vc0 > platform.v_min);
  if (controller_config != nullptr) {
    monitor_.emplace(cfg_.monitor_network);
    controller_.emplace(platform, *monitor_, *controller_config);
  }
  events_.reserve(3);  // brownout + low + high is the largest watch set
}

double SimEngine::base_power() const {
  double p = soc_.power(latched_util_);
  if (monitor_) p += hw::VoltageMonitor::kPowerW;
  return p;
}

void SimEngine::refresh_segment_power() { seg_p_base_ = base_power(); }

double SimEngine::segment_load_current(double v) const {
  return seg_p_base_ / std::max(v, cfg_.load_v_floor_v);
}

Snapshot SimEngine::snapshot(double vc, double t) const {
  Snapshot s;
  s.vc = vc;
  const auto& opp = soc_.opp();
  s.freq_hz =
      soc_.is_on() ? platform_->opps.frequency(opp.freq_index) : 0.0;
  s.n_little = soc_.is_on() ? opp.cores.n_little : 0;
  s.n_big = soc_.is_on() ? opp.cores.n_big : 0;
  s.p_consumed = base_power();
  s.p_available = source_->available_power(t);
  if (controller_) {
    s.v_low = controller_->thresholds().v_low();
    s.v_high = controller_->thresholds().v_high();
  }
  return s;
}

void SimEngine::dispatch_interrupt(hw::MonitorEdge edge, double t) {
  auto plan = controller_->on_interrupt(edge, t, soc_.final_target());
  if (!plan.empty() && soc_.is_on())
    soc_.enqueue_plan(std::move(plan), t);
}

void SimEngine::refresh_events() {
  EventSetKey key;
  key.off = soc_.power_state() == soc::PowerState::kOff;
  if (!key.off && controller_ && soc_.is_on()) {
    if (monitor_->low_channel().output()) {
      key.watch_low = true;
      key.low_trip = monitor_->low_channel().node_falling_trip();
    }
    if (!monitor_->high_channel().output()) {
      key.watch_high = true;
      key.high_trip = monitor_->high_channel().node_rising_trip();
    }
  }
  if (event_key_valid_ && key == event_key_) return;
  event_key_ = key;
  event_key_valid_ = true;

  events_.clear();
  if (!key.off) {
    events_.push_back(ehsim::EventSpec::threshold(
        platform_->v_min, ehsim::EventDirection::kFalling, kTagBrownout));
    if (key.watch_low)
      events_.push_back(ehsim::EventSpec::threshold(
          key.low_trip, ehsim::EventDirection::kFalling, kTagLow));
    if (key.watch_high)
      events_.push_back(ehsim::EventSpec::threshold(
          key.high_trip, ehsim::EventDirection::kRising, kTagHigh));
  } else if (cfg_.enable_reboot) {
    events_.push_back(ehsim::EventSpec::threshold(
        platform_->v_min + cfg_.reboot_margin_v,
        ehsim::EventDirection::kRising, kTagRecover));
  }
}

bool SimEngine::try_coast(double t, double vc, double next_gov_tick,
                          ehsim::IntegrationResult& out) {
  // Horizon: the engine's own timed boundaries plus the window over which
  // every time-dependent model vouches for constancy. max_segment_s is
  // deliberately absent -- skipping past it is the whole point -- but a
  // recording run is capped at the sampling interval so series density
  // is preserved.
  double horizon =
      std::min({cfg_.t_end, soc_.next_boundary(), soc_.boot_complete_time(),
                next_gov_tick, circuit_.time_invariant_until(t),
                workload_->constant_until(t)});
  if (cfg_.record_series)
    horizon = std::min(horizon, t + cfg_.record_interval_s);
  const double span = horizon - t;
  // Coast only when the jump replaces at least a couple of segments: a
  // one-segment jump is a net LOSS (measured ~2x slower on a quiescent
  // recorded hour) -- the three probe evaluations plus the integrator
  // reset/restart cost more than one FSAL-amortised PI step. This also
  // means a recording run whose interval is within two segments of the
  // stop grid simply keeps stepping, which is the faster choice there.
  if (span <= 2.0 * cfg_.max_segment_s) return false;

  const double tol = cfg_.coast_dv_tol_v;
  auto dvdt = [&](double v) { return circuit_.derivative(t, v); };
  // Quiescence: the drift at vc stays within the tolerance over the whole
  // span, and the flow at vc +/- tol points inward (or is equally tiny).
  // The inward check distinguishes a *stable* equilibrium -- where a
  // large restoring derivative at the probes is exactly what keeps VC
  // put -- from an unstable one that a naive |dV/dt| test would coast
  // across while the true trajectory diverges.
  const double f = dvdt(vc);
  if (std::abs(f) * span > tol) return false;
  if (dvdt(vc + tol) * span > tol) return false;
  if (dvdt(vc - tol) * span < -tol) return false;
  // Every watched threshold must be out of reach of the bounded drift.
  for (const auto& ev : events_)
    if (std::abs(vc - ev.level) <= 2.0 * tol) return false;
  // So must the comparator channels' *unwatched* trip levels: hysteresis
  // re-arm crossings are caught by the quiet-stop monitor sync, which a
  // coast jump would postpone by the whole span if VC drifted across one.
  if (monitor_ && soc_.is_on()) {
    for (const hw::ThresholdChannel* ch :
         {&monitor_->low_channel(), &monitor_->high_channel()}) {
      if (std::abs(vc - ch->node_rising_trip()) <= 2.0 * tol) return false;
      if (std::abs(vc - ch->node_falling_trip()) <= 2.0 * tol) return false;
    }
  }

  const double v_new = vc + f * span;
  integrator_.reset(horizon, v_new);
  out = {};
  out.t = horizon;
  return true;
}

void SimEngine::kick_if_outside(double vc, double t) {
  if (!controller_ || !soc_.is_on()) return;
  if (vc >= monitor_->high_channel().node_rising_trip()) {
    dispatch_interrupt(hw::MonitorEdge::kHighRising, t);
  } else if (vc <= monitor_->low_channel().node_falling_trip()) {
    dispatch_interrupt(hw::MonitorEdge::kLowFalling, t);
  }
}

SimResult SimEngine::run() {
  begin();
  return run_remaining();
}

SimResult SimEngine::run_remaining() {
  while (!finished()) {
    SegmentPlan plan = plan_segment();
    ehsim::IntegrationResult res;
    if (plan.coasted)
      res = plan.coast_result;
    else
      res = integrator_.advance(plan.t_stop, events_);
    commit_segment(res);
  }
  return finish();
}

void SimEngine::begin() {
  PNS_EXPECTS(!ran_);
  ran_ = true;

  cur_t_ = cfg_.t_start;
  cur_vc_ = cfg_.vc0;

  result_ = {};
  result_.used_controller = controller_.has_value();
  result_.control_name = controller_   ? "power-neutral"
                         : governor_   ? governor_->name()
                                       : "static";

  acc_.emplace(cur_t_, cfg_.v_target, cfg_.band_fraction);
  acc_->attach_histogram(&result_.voltage_histogram);
  recorder_.emplace(cfg_.record_interval_s, cfg_.record_series);

  if (platform_->domains) {
    const std::size_t n = platform_->domains->domain_count();
    seg_dom_power_.assign(n, 0.0);
    seg_dom_rate_.assign(n, 0.0);
    dom_energy_j_.assign(n, 0.0);
    dom_instr_.assign(n, 0.0);
    dom_share_time_.assign(n, 0.0);
    dom_share_dt_ = 0.0;
  }

  latched_util_ = workload_->utilization(cur_t_);
  if (controller_) {
    controller_->calibrate(cur_vc_, cur_t_);
    kick_if_outside(cur_vc_, cur_t_);
  }

  integrator_.reset(cur_t_, cur_vc_);

  next_gov_tick_ = governor_
                       ? cur_t_ + governor_->sampling_period()
                       : std::numeric_limits<double>::infinity();
  gov_stop_ = next_gov_tick_;

  if (recorder_->would_record(cur_t_, /*force=*/true))
    recorder_->record(cur_t_, snapshot(cur_vc_, cur_t_), /*force=*/true);

  // Load power the integrator's cached FSAL derivative was computed
  // under. The derivative only goes stale when this changes (or when an
  // event rewinds the state, which the integrator tracks itself), so
  // plan_segment() invalidates on *change* instead of every segment --
  // saving one derivative evaluation per quiet stop point. Recomputing
  // f(t, y) under an unchanged load is bit-identical to the cached
  // value, so this cannot perturb any trajectory.
  ode_p_base_ = std::numeric_limits<double>::quiet_NaN();
}

bool SimEngine::finished() const { return cur_t_ >= cfg_.t_end - kTickEps; }

SimEngine::SegmentPlan SimEngine::plan_segment() {
  seg_t0_ = cur_t_;
  seg_v0_ = cur_vc_;
  if (!governor_) latched_util_ = workload_->utilization(cur_t_);
  refresh_segment_power();
  if (seg_p_base_ != ode_p_base_) {
    integrator_.notify_discontinuity();
    ode_p_base_ = seg_p_base_;
  }
  seg_p_harv0_ = source_->current(seg_v0_, cur_t_) * seg_v0_;
  seg_instr_rate_ = soc_.instruction_rate(latched_util_);
  if (platform_->domains)
    soc_.domain_rates(latched_util_, seg_dom_power_, seg_dom_rate_);

  // Governor-tick elision: find the first tick that is not provably a
  // no-op and stop there instead of at every tick. Premises are
  // re-validated every segment, and anything that could break one mid-
  // segment (an event, an OPP boundary, boot completion) ends the segment
  // first, so skipped ticks are skipped soundly.
  gov_stop_ = next_gov_tick_;
  if (cfg_.gov_tick_elide && governor_ &&
      next_gov_tick_ < std::numeric_limits<double>::infinity()) {
    if (!soc_.is_on()) {
      // While the SoC is off a tick only reschedules itself; skip them
      // all. Catch-up keeps next_gov_tick_ on the sampling grid, so
      // ticking resumes exactly where an unelided run would resume.
      gov_stop_ = std::numeric_limits<double>::infinity();
    } else if (!soc_.transitioning() &&
               workload_->utilization(seg_t0_) == latched_util_) {
      gov::GovernorContext ctx{seg_t0_, latched_util_, soc_.final_target()};
      const double hold = std::min(governor_->hold_until(ctx),
                                   workload_->constant_until(seg_t0_));
      if (hold == std::numeric_limits<double>::infinity()) {
        gov_stop_ = std::numeric_limits<double>::infinity();
      } else {
        const double period = governor_->sampling_period();
        while (gov_stop_ + kTickEps < hold) gov_stop_ += period;
      }
    }
  }

  SegmentPlan plan;
  plan.t_stop = std::min(
      {cfg_.t_end, seg_t0_ + cfg_.max_segment_s, soc_.next_boundary(),
       soc_.boot_complete_time(), gov_stop_});
  PNS_ENSURES(plan.t_stop > seg_t0_);

  refresh_events();
  if (cfg_.coast && try_coast(cur_t_, cur_vc_, gov_stop_, plan.coast_result))
    plan.coasted = true;
  return plan;
}

void SimEngine::commit_segment(const ehsim::IntegrationResult& res) {
  const double t = res.t;
  const double vc = integrator_.state();
  cur_t_ = t;
  cur_vc_ = vc;

  // --- segment accounting ---------------------------------------------
  acc_->add_segment(seg_t0_, t, seg_v0_, vc, seg_p_harv0_,
                    source_->current(vc, t) * vc, seg_p_base_,
                    seg_instr_rate_, soc_.is_on());
  workload_->advance(seg_t0_, t - seg_t0_, seg_instr_rate_);
  if (platform_->domains) {
    const double dt = t - seg_t0_;
    double total = 0.0;
    for (std::size_t d = 0; d < seg_dom_power_.size(); ++d) {
      dom_energy_j_[d] += seg_dom_power_[d] * dt;
      dom_instr_[d] += seg_dom_rate_[d] * dt;
      total += seg_dom_power_[d];
    }
    if (total > 0.0) {
      for (std::size_t d = 0; d < seg_dom_power_.size(); ++d)
        dom_share_time_[d] += seg_dom_power_[d] / total * dt;
      dom_share_dt_ += dt;
    }
  }

  // --- event / boundary handling ---------------------------------------
  bool force_record = false;
  if (res.event_fired) {
    force_record = true;
    switch (res.event_tag) {
      case kTagLow:
      case kTagHigh: {
        // Let the comparator see the crossing, then run the ISR.
        auto edge = monitor_->sample(vc);
        const hw::MonitorEdge e =
            edge.value_or(res.event_tag == kTagLow
                              ? hw::MonitorEdge::kLowFalling
                              : hw::MonitorEdge::kHighRising);
        dispatch_interrupt(e, t);
        break;
      }
      case kTagBrownout:
        acc_->on_brownout(t);
        soc_.power_off(t);
        break;
      case kTagRecover:
        soc_.begin_boot(t);
        break;
      default:
        break;
    }
  }

  // Timed boundaries are checked even when an event fired at the same
  // instant (an event landing exactly on a step boundary must not leave
  // the completed step pending, or the next segment would be empty).
  if (t + kTickEps >= soc_.next_boundary()) {
    soc_.complete_step(t);
    force_record = true;
  }
  if (t + kTickEps >= soc_.boot_complete_time()) {
    soc_.complete_boot(t);
    if (controller_) {
      controller_->calibrate(vc, t);
      kick_if_outside(vc, t);
    }
    if (governor_) governor_->reset();
    force_record = true;
  }
  if (governor_) {
    // Catch-up over elided ticks: every tick at or before t that was
    // provably a no-op (strictly before gov_stop_) is consumed without
    // running the handler, staying on the sampling grid throughout.
    const double period = governor_->sampling_period();
    while (next_gov_tick_ + kTickEps < gov_stop_ &&
           next_gov_tick_ <= t + kTickEps)
      next_gov_tick_ += period;
  }
  if (governor_ && t + kTickEps >= next_gov_tick_) {
    next_gov_tick_ = t + governor_->sampling_period();
    if (soc_.is_on()) {
      latched_util_ = workload_->utilization(t);
      gov::GovernorContext ctx{t, latched_util_, soc_.final_target()};
      const auto desired = governor_->decide(ctx);
      if (desired.freq_index != ctx.current.freq_index &&
          !soc_.transitioning()) {
        soc_.enqueue_plan(planner_.plan_dvfs_jump(ctx.current,
                                                  desired.freq_index,
                                                  latched_util_),
                          t);
        force_record = true;
      }
    }
  }
  // Sync the comparator state machines at quiet stop points (catches
  // hysteresis re-arm crossings that are not watched as events).
  if (!res.event_fired && controller_ && soc_.is_on()) {
    if (auto edge = monitor_->sample(vc)) dispatch_interrupt(*edge, t);
  }

  if (recorder_->would_record(t, force_record))
    recorder_->record(t, snapshot(vc, t), force_record);
}

SimResult SimEngine::finish() {
  result_.metrics =
      acc_->finish(cur_t_, platform_->perf.params().instr_per_frame);
  if (platform_->domains) {
    const auto& model = *platform_->domains;
    result_.metrics.domains.resize(model.domain_count());
    for (std::size_t d = 0; d < model.domain_count(); ++d) {
      DomainMetrics& m = result_.metrics.domains[d];
      m.name = model.domains[d].name;
      m.energy_j = dom_energy_j_[d];
      m.instructions = dom_instr_[d];
      m.mean_budget_share =
          dom_share_dt_ > 0.0 ? dom_share_time_[d] / dom_share_dt_ : 0.0;
    }
  }
  if (const auto* pv = dynamic_cast<const ehsim::PvSource*>(source_))
    result_.metrics.pv_solve = pv->solve_stats();
  result_.series = recorder_->take();
  if (controller_) result_.controller = controller_->stats();
  return std::move(result_);
}

}  // namespace pns::sim
