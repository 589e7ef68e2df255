// Adaptive Bogacki-Shampine RK2(3) integrator with event localisation.
//
// This is the method behind Matlab's ODE23, which the paper uses for its
// Simulink parameter-selection study (Section III). The embedded 2nd-order
// solution provides the error estimate; the 3rd-order solution propagates.
// FSAL (first-same-as-last) gives 3 derivative evaluations per accepted
// step. Dense output is cubic Hermite over the accepted step, which is
// enough to localise threshold/brownout events to ~1 us.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "ehsim/ode.hpp"
#include "ehsim/stepper_pi.hpp"

namespace pns::ehsim {

/// The Bogacki-Shampine tableau, per state component. Rk23Integrator's
/// step_window() and the batched stepper's stage_packed() (ehsim/rk23_batch)
/// both evaluate their stages through these helpers, so the two paths
/// share every coefficient and every association order. The helpers are
/// bit-safe only when called from a PNS_BITEXACT_SOURCES TU
/// (-ffp-contract=off, CMakeLists.txt); anywhere else the compiler may
/// fuse them differently on an FMA target.
namespace bs23 {

/// Stage-2 node c2 and stage-3 node c3 (stage 4 sits at t + h).
inline constexpr double kC2 = 0.5;
inline constexpr double kC3 = 0.75;

/// Stage-2 state y + h * c2 * k1 (its time: t + c2 * h).
inline double stage2(double y, double h, double k1) {
  return y + h * kC2 * k1;
}

/// Stage-3 state y + h * c3 * k2 (its time: t + c3 * h).
inline double stage3(double y, double h, double k2) {
  return y + h * kC3 * k2;
}

/// The propagated third-order solution at t + h (also stage 4's state).
inline double third_order(double y, double h, double k1, double k2,
                          double k3) {
  return y + h * (2.0 / 9.0 * k1 + 1.0 / 3.0 * k2 + 4.0 / 9.0 * k3);
}

/// Embedded error estimate: ynew minus the second-order solution.
inline double embedded_error(double y, double ynew, double h, double k1,
                             double k2, double k3, double k4) {
  const double z =
      y + h * (7.0 / 24.0 * k1 + 0.25 * k2 + 1.0 / 3.0 * k3 + 0.125 * k4);
  return ynew - z;
}

/// One component's error scaled by atol + rtol * max(|y0|, |y1|); the
/// step's error norm is the RMS of these.
inline double scaled_error(double err, double y0, double y1, double rel_tol,
                           double abs_tol) {
  const double scale =
      abs_tol + rel_tol * std::max(std::abs(y0), std::abs(y1));
  return err / scale;
}

}  // namespace bs23

/// Step-size control law of the adaptive integrator.
enum class StepControl {
  /// The original per-step rule: h * clamp(0.9 * err^(-1/3), 0.2, 5).
  /// Reproduces the pre-PI integrator bit for bit.
  kClamped,
  /// Proportional-integral controller (ehsim/stepper_pi.hpp): damps the
  /// grow/reject limit cycle, so quiescent stretches run at the largest
  /// tolerable step.
  kPi,
};

/// How threshold-event roots are localised inside an accepted step.
enum class EventLocalization {
  /// Bisection on the Hermite dense output (the original scheme).
  kBisection,
  /// Direct root solve on the dense-output cubic (ehsim/dense_output.hpp)
  /// for data-only threshold events; callback events still bisect.
  kDenseRoot,
};

/// Tolerances and step-size limits for Rk23Integrator.
struct Rk23Options {
  double rel_tol = 1e-6;
  double abs_tol = 1e-9;
  double max_step = 1e9;      ///< upper bound on step size (seconds)
  double min_step = 1e-12;    ///< below this the step is accepted anyway
  double initial_step = 0.0;  ///< 0 = choose automatically
  double event_tol = 1e-9;    ///< event time localisation tolerance (s)
  std::size_t max_steps_per_call = 50'000'000;  ///< runaway guard
  StepControl step_control = StepControl::kClamped;
  EventLocalization event_localization = EventLocalization::kBisection;
};

/// One step attempt of an open window. step_window() fills it for
/// itself; the batched stepper (ehsim/rk23_batch) stages it across lanes:
/// attempt_open() runs the shared step prologue (runaway guard,
/// step-size choice) and exposes the stage inputs, the caller evaluates
/// the four RK stages and the scaled error norm -- packed across lanes,
/// with the exact scalar arithmetic -- and attempt_close() feeds them
/// back into the shared accept/reject epilogue.
struct Rk23StepAttempt {
  // Filled by the step prologue:
  double h = 0.0;           ///< step size of this attempt
  bool end_capped = false;  ///< h shortened only to land on t_end
  double h_limit = 0.0;     ///< min(h_, max_step) before the end cap
  // Filled by attempt_open() for dimension-1 systems:
  double t = 0.0;   ///< time at the start of the attempt
  double y = 0.0;   ///< state at the start of the attempt
  double k1 = 0.0;  ///< FSAL stage: derivative at (t, y)
  // Filled by the caller before attempt_close():
  double k2 = 0.0, k3 = 0.0, k4 = 0.0;
  double ynew = 0.0;  ///< 3rd-order solution at t + h
  double yerr = 0.0;  ///< embedded 2nd-order error estimate
  double err = 0.0;   ///< scaled error norm of yerr
};

/// Single-trajectory adaptive integrator. Typical use:
///
///   Rk23Integrator ig(system, opts);
///   ig.reset(0.0, y0);
///   auto res = ig.advance(t_end, events);
///   if (res.event_fired) { ...handle, maybe mutate system..., }
///   res = ig.advance(t_end, events);   // continues from the event time
///
/// After an event fires the integrator stops exactly at the event time; the
/// caller may change the system's parameters (load power, thresholds) and
/// call advance() again -- the integrator restarts cleanly (no stale FSAL).
class Rk23Integrator {
 public:
  Rk23Integrator(const OdeSystem& system, Rk23Options options = {});

  /// Sets the current time and state, discarding integration history.
  void reset(double t0, std::span<const double> y0);

  double time() const { return t_; }
  std::span<const double> state() const { return y_; }

  /// Integrates forward until `t_end` or until the first event root,
  /// whichever comes first. Events are tested on every accepted step.
  /// Equivalent to begin_window() + step_window() until completion.
  IntegrationResult advance(double t_end,
                            std::span<const EventSpec> events = {});

  /// Incremental form of advance() for callers that interleave several
  /// trajectories (sim/batch_engine): begin_window() performs advance()'s
  /// prologue -- FSAL ensure, initial step guess, event baseline -- without
  /// taking a step, writes the trivial result into `result`, and returns
  /// true when there is integration work to do (false when t_end <=
  /// time(), matching advance()'s early return). The events storage must
  /// outlive the window.
  bool begin_window(double t_end, std::span<const EventSpec> events,
                    IntegrationResult& result);

  /// Attempts exactly one step of the open window: one rejected trial or
  /// one accepted step (with event scan and possible rewind), accumulating
  /// into the same `result` given to begin_window(). Returns true while
  /// the window is still open; false once it completed -- `result` then
  /// equals what advance() would have returned. The interleaved sequence
  /// of FP operations per trajectory is identical to advance()'s, so a
  /// window-stepped run is bit-identical to a plain advance().
  bool step_window(IntegrationResult& result);

  /// Split form of step_window() for the batched stepper's packed
  /// rounds: performs the same prologue and fills the attempt's inputs.
  /// Returns false (and completes `result`) when the window is already
  /// done -- exactly when step_window() would have returned false
  /// without attempting a step.
  /// Only dimension-1 systems are supported (the batched engine
  /// integrates the single-node circuit).
  bool attempt_open(Rk23StepAttempt& at, IntegrationResult& result);

  /// Completes the attempt: accept/reject, step-size control, event scan
  /// and possible rewind. Same return convention as step_window(). The
  /// caller must have filled k2..k4/ynew/yerr/err with values
  /// bit-identical to what step_window() would have computed; the
  /// epilogue is the very same code (finish_attempt), so the resulting
  /// trajectory is bit-identical too.
  bool attempt_close(const Rk23StepAttempt& at, IntegrationResult& result);

  const Rk23Options& options() const { return opt_; }

  /// Invalidates cached derivatives; call after mutating the OdeSystem's
  /// parameters mid-run (the FSAL derivative would otherwise be stale).
  /// Also forgets the PI controller's error history -- errors measured
  /// under the old right-hand side say nothing about the new one.
  void notify_discontinuity() {
    have_f0_ = false;
    pi_.reset();
  }

  /// Statistics for the whole lifetime of the integrator.
  std::size_t total_steps() const { return total_steps_; }
  std::size_t total_rejected() const { return total_rejected_; }

 private:
  /// Cubic Hermite interpolation inside the last accepted step.
  void interpolate(double t, std::span<double> y_out) const;

  /// Cubic Hermite interpolation of a single state component.
  double interpolate_one(double t, std::size_t i) const;

  /// Evaluates event g at (t, y interpolated inside last step). Threshold
  /// events interpolate only y[0]; general events use the event_y_ scratch
  /// buffer (hence non-const).
  double event_value(const EventSpec& ev, double t);

  double initial_step_guess(double t_end) const;

  /// Shared prologue of step_window()/attempt_open(): runaway guard and
  /// step-size choice (h_limit, end cap, min_step floor) into `at`.
  /// Returns false, completing `result`, once the window reached t_end.
  bool step_prologue(Rk23StepAttempt& at, IntegrationResult& result);

  /// Shared epilogue of step_window()/attempt_close(): reject (with
  /// step-size cut) or accept (commit, FSAL, step growth, event scan and
  /// rewind). Reads the stage buffers k1_..k4_/ynew_/yerr_.
  bool finish_attempt(double h, bool end_capped, double h_limit, double err,
                      IntegrationResult& result);

  const OdeSystem* system_;
  Rk23Options opt_;

  double t_ = 0.0;
  std::vector<double> y_;
  std::vector<double> f0_;  // derivative at (t_, y_) -- FSAL cache
  bool have_f0_ = false;

  // Last accepted step (for dense output / event bisection).
  double step_t0_ = 0.0, step_t1_ = 0.0;
  std::vector<double> step_y0_, step_y1_, step_f0_, step_f1_;

  // Work arrays. advance() is allocation-free in steady state: the event
  // buffers below grow once to the largest event count seen and are then
  // reused across calls.
  std::vector<double> k1_, k2_, k3_, k4_, ytmp_, yerr_, ynew_;
  std::vector<double> g_prev_, g_curr_;  // event values across a step
  std::vector<double> event_y_;          // scratch for general-event eval

  double h_ = 0.0;  // current step size
  PiStepController pi_;  // used only in StepControl::kPi
  std::size_t total_steps_ = 0;
  std::size_t total_rejected_ = 0;

  // Open stepping window (begin_window/step_window).
  double win_t_end_ = 0.0;
  std::span<const EventSpec> win_events_{};
  std::size_t win_steps_ = 0;  // runaway guard, counts attempted steps
};

}  // namespace pns::ehsim
