// Event-driven co-simulation engine.
//
// Couples four models and advances them together:
//   * the storage-node circuit (ehsim)  -- adaptive RK23 on d(VC)/dt
//   * the SoC runtime (soc)             -- OPP, transitions, power state
//   * the control layer                 -- power-neutral controller via
//     comparator interrupts, OR a Linux-style governor via periodic
//     sampling, OR nothing (static OPP)
//   * the workload                      -- utilisation + progress
//
// Threshold crossings, brownout, and recovery are localised as ODE events
// (the load power is discontinuous there); transition-step completions,
// governor ticks and boot completion are timed boundaries. Between
// consecutive stop points the load power is constant, which keeps the
// integrator's assumptions honest.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "ehsim/circuit.hpp"
#include "ehsim/rk23.hpp"
#include "governors/governor.hpp"
#include "hw/monitor.hpp"
#include "sim/metrics.hpp"
#include "sim/recorder.hpp"
#include "soc/soc_state.hpp"
#include "soc/workload.hpp"
#include "util/histogram.hpp"

namespace pns::sim {

/// Run configuration shared by all control modes.
struct SimConfig {
  double t_start = 0.0;
  double t_end = 60.0;

  // Storage node (the paper's validation system uses 47 mF).
  double capacitance_f = 47e-3;
  double cap_leak_ohm = 50.0e3;    ///< supercap self-discharge
  double vc0 = 5.3;                ///< initial node voltage (V)

  // Voltage-stability band (Fig. 12): centre and half-width fraction.
  double v_target = 5.3;
  double band_fraction = 0.05;

  // Numerical granularity.
  double max_segment_s = 0.05;   ///< outer-loop stop-point spacing
  double max_ode_step_s = 0.01;  ///< RK23 step ceiling
  double rel_tol = 1e-6;
  double abs_tol = 1e-8;

  // Integration engine selection (the `--integrator` axis). The defaults
  // reproduce the original engine bit for bit; the `rk23pi` registry kind
  // switches all three (see docs/performance.md).
  ehsim::StepControl step_control = ehsim::StepControl::kClamped;
  ehsim::EventLocalization event_localization =
      ehsim::EventLocalization::kBisection;
  /// Steady-state coasting: when the circuit is provably time-invariant
  /// (source, load and workload all vouch via constant_until) and VC can
  /// neither drift by more than `coast_dv_tol_v` nor reach a watched
  /// threshold over the span, the engine advances to the next breakpoint
  /// in one analytic jump instead of stepping through it.
  bool coast = false;
  double coast_dv_tol_v = 1e-4;
  /// Governor-tick elision: before each segment, ask the governor (via
  /// Governor::hold_until) and the workload (constant_until) for a window
  /// over which every sampling tick is provably a no-op -- the measured
  /// utilisation cannot change and decide() would keep the current OPP
  /// and leave governor state untouched -- and stop only at the first
  /// possibly-live tick instead of every tick. Ticks while the SoC is off
  /// are pure reschedules and are always elidable. The skipped ticks stay
  /// on the sampling grid (catch-up re-aligns), so runs with and without
  /// elision fire the same *live* ticks at the same times; elision is an
  /// execution strategy, not a model change. Off for the default `rk23`
  /// kind (pinned bit-identical to the published CSVs); on for rk23pi /
  /// rk23simd.
  bool gov_tick_elide = false;

  // Recording.
  bool record_series = true;
  double record_interval_s = 0.25;

  // Brownout / recovery semantics.
  bool enable_reboot = true;
  double reboot_margin_v = 0.5;  ///< boot when VC > v_min + margin

  /// Lower clamp on the node voltage in the I = P / V conversion of the
  /// constant-power load. Keeps the current finite through node collapse;
  /// platforms whose regulators stay alive below 50 mV (or sweeps over
  /// low-voltage designs) should lower it rather than inherit a silent
  /// distortion.
  double load_v_floor_v = 0.05;

  /// Initial operating point; platform's lowest OPP when unset.
  std::optional<soc::OperatingPoint> initial_opp;

  /// Resistor network of the threshold-monitor channels. The default suits
  /// the ODROID XU4's 4.1-5.7 V window; custom platforms with different
  /// node-voltage ranges must scale the divider (see
  /// examples/custom_platform.cpp).
  hw::ChannelNetwork monitor_network{};
};

/// Everything a run produces.
struct SimResult {
  SimMetrics metrics;
  RecordedSeries series;
  ctl::ControllerStats controller;  ///< zeroed unless the PNS controller ran
  bool used_controller = false;
  std::string control_name;
  pns::Histogram voltage_histogram{0.0, 8.0, 160};  ///< 50 mV dwell bins
};

/// One-shot simulation engine. Construct, call run(), discard.
class SimEngine {
 public:
  /// Power-neutral-controller mode (the paper's proposed system).
  SimEngine(const soc::Platform& platform,
            const ehsim::CurrentSource& source, soc::Workload& workload,
            SimConfig config, ctl::ControllerConfig controller_config);

  /// Linux-governor mode (takes ownership of the governor).
  SimEngine(const soc::Platform& platform,
            const ehsim::CurrentSource& source, soc::Workload& workload,
            SimConfig config, std::unique_ptr<gov::Governor> governor);

  /// Uncontrolled mode: the SoC stays at the initial OPP.
  SimEngine(const soc::Platform& platform,
            const ehsim::CurrentSource& source, soc::Workload& workload,
            SimConfig config);

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Runs [t_start, t_end] to completion and returns the result:
  /// begin() + run_remaining(). Callable once.
  SimResult run();

  // --- stepped-run API --------------------------------------------------
  // For external drivers that interleave several engines (sim/batch_engine):
  //   begin();
  //   while (!finished()) {
  //     SegmentPlan plan = plan_segment();
  //     ehsim::IntegrationResult res;
  //     if (plan.coasted) res = plan.coast_result;
  //     else            res = integrator().advance(plan.t_stop, events());
  //     commit_segment(res);
  //   }
  //   SimResult r = finish();
  // The loop and finish() are run_remaining(), and run() is begin() +
  // run_remaining(). A driver may replace advance() by a
  // begin_window/step_window sequence, which is itself bit-identical, so
  // a stepped run produces bit-identical results to run().

  /// What plan_segment() decided for the next segment. When `coasted` the
  /// analytic jump has already been applied to the integrator and
  /// `coast_result` must be committed as-is; otherwise integrate to
  /// `t_stop` against events() and commit that result.
  struct SegmentPlan {
    double t_stop = 0.0;
    bool coasted = false;
    ehsim::IntegrationResult coast_result;
  };

  /// run()'s prologue: initial calibration, recorder/metrics setup.
  /// Callable once (shares the run() guard).
  void begin();
  /// True when the run reached t_end and finish() may be called.
  bool finished() const;
  /// Latches utilisation, refreshes segment power/events, computes the
  /// next stop point and tries the coasting fast path.
  SegmentPlan plan_segment();
  /// Applies an integration (or coast) outcome: metrics, workload
  /// progress, event dispatch, timed boundaries, governor ticks,
  /// recording.
  void commit_segment(const ehsim::IntegrationResult& res);
  /// Closes metrics and returns the result. Callable once, after
  /// finished().
  SimResult finish();
  /// Runs every remaining segment (plan, advance or coast, commit) and
  /// finishes: the tail of run(), and how an external driver completes a
  /// lane it stops interleaving. Callable once, after begin().
  SimResult run_remaining();

  double time() const { return cur_t_; }
  double voltage() const { return cur_vc_; }
  ehsim::Rk23Integrator& integrator() { return integrator_; }
  std::span<const ehsim::EventSpec> events() const { return events_; }
  /// The ODE system integrator() integrates. The batched stepper binds
  /// this to evaluate the PV solves batched across lanes
  /// (ehsim/solar_cell_simd.hpp).
  const ehsim::EhCircuit& circuit() const { return circuit_; }

 private:
  SimEngine(const soc::Platform& platform,
            const ehsim::CurrentSource& source, soc::Workload& workload,
            SimConfig config, ctl::ControllerConfig* controller_config,
            std::unique_ptr<gov::Governor> governor);

  /// SoC + threshold-monitor draw at the latched utilisation (W).
  double base_power() const;
  /// I = P / V of the segment's load power (seg_p_base_). The SoC draw is
  /// constant between stop points, so the ODE callback divides a cached
  /// power instead of re-walking the power model on every derivative
  /// evaluation.
  double segment_load_current(double v) const;
  /// Recomputes seg_p_base_ from the current SoC state and latched
  /// utilisation. Must run before every integrator_.advance().
  void refresh_segment_power();
  /// Rebuilds events_ if the wanted event set changed (SoC power state,
  /// monitor arming, or a threshold moved); otherwise reuses it as-is.
  void refresh_events();
  /// After (re)calibration the node can already sit outside the window
  /// (e.g. it charged towards Voc during boot); real firmware reads the
  /// comparator GPIO *level* after programming the thresholds and services
  /// a pending interrupt immediately. This reproduces that check.
  void kick_if_outside(double vc, double t);
  Snapshot snapshot(double vc, double t) const;
  void dispatch_interrupt(hw::MonitorEdge edge, double t);

  /// Steady-state coasting: if the span [t, horizon] (timed boundaries
  /// and the circuit's vouched time-invariance window, computed inside)
  /// is quiescent -- |dVC/dt| small enough that VC stays within
  /// cfg_.coast_dv_tol_v, the flow at the tolerance boundaries points
  /// inward (no jump across an unstable equilibrium), and every watched
  /// threshold is out of reach -- advances the integrator analytically to
  /// the horizon and returns true with `out` describing the jump.
  /// Requires refresh_segment_power() and refresh_events() to be current.
  bool try_coast(double t, double vc, double next_gov_tick,
                 ehsim::IntegrationResult& out);

  /// Direct Load adapter into segment_load_current: one virtual call per
  /// derivative evaluation instead of virtual + std::function + closure.
  struct OdeLoad final : ehsim::Load {
    explicit OdeLoad(const SimEngine& engine) : engine_(&engine) {}
    double current(double v, double /*t*/) const override {
      return engine_->segment_load_current(v);
    }
    /// The segment load is constant in t by construction; everything
    /// that changes it (OPP transitions, governor ticks, workload
    /// demand) already bounds the coasting horizon in try_coast.
    double constant_until(double /*t*/) const override {
      return std::numeric_limits<double>::infinity();
    }
    const SimEngine* engine_;
  };

  /// Identity of the event set watched over a segment; events_ is only
  /// re-derived when this changes.
  struct EventSetKey {
    bool off = false;
    bool watch_low = false, watch_high = false;
    double low_trip = 0.0, high_trip = 0.0;
    bool operator==(const EventSetKey&) const = default;
  };

  const soc::Platform* platform_;
  const ehsim::CurrentSource* source_;
  soc::Workload* workload_;
  SimConfig cfg_;

  soc::SocRuntime soc_;
  soc::TransitionPlanner planner_;
  std::optional<hw::VoltageMonitor> monitor_;
  std::optional<ctl::PowerNeutralController> controller_;
  std::unique_ptr<gov::Governor> governor_;

  OdeLoad load_;
  ehsim::EhCircuit circuit_;
  ehsim::Rk23Integrator integrator_;

  double latched_util_ = 1.0;
  double seg_p_base_ = 0.0;  ///< SoC + monitor power over this segment (W)
  std::vector<ehsim::EventSpec> events_;
  EventSetKey event_key_;
  bool event_key_valid_ = false;
  bool ran_ = false;

  // --- stepped-run state (begin() .. finish()) --------------------------
  SimResult result_;
  std::optional<MetricsAccumulator> acc_;
  std::optional<SeriesRecorder> recorder_;
  double cur_t_ = 0.0;
  double cur_vc_ = 0.0;
  double next_gov_tick_ = 0.0;
  /// First governor tick that is not provably a no-op (== next_gov_tick_
  /// unless cfg_.gov_tick_elide bought a longer hold); bounds t_stop.
  double gov_stop_ = 0.0;
  /// Load power the integrator's cached FSAL derivative was computed
  /// under; stale-derivative invalidation happens on *change* only.
  double ode_p_base_ = 0.0;
  // Carried from plan_segment() into commit_segment().
  double seg_t0_ = 0.0;
  double seg_v0_ = 0.0;
  double seg_p_harv0_ = 0.0;
  double seg_instr_rate_ = 0.0;

  // Per-domain accounting, active only when platform_->domains is set
  // (sized in begin(), latched per segment next to seg_instr_rate_).
  // Accumulation happens in commit_segment(), so the batched engine --
  // which drives the same plan/commit pair -- produces identical
  // per-domain metrics for free.
  std::vector<double> seg_dom_power_;
  std::vector<double> seg_dom_rate_;
  std::vector<double> dom_energy_j_;
  std::vector<double> dom_instr_;
  std::vector<double> dom_share_time_;  ///< integral of budget share dt
  double dom_share_dt_ = 0.0;           ///< time with a live domain budget
};

}  // namespace pns::sim
