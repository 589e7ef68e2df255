// Adaptive Bogacki-Shampine RK2(3) integrator for the scalar storage node
// with threshold-event localisation.
//
// This is the method behind Matlab's ODE23, which the paper uses for its
// Simulink parameter-selection study (Section III). The embedded 2nd-order
// solution provides the error estimate; the 3rd-order solution propagates.
// FSAL (first-same-as-last) gives 3 derivative evaluations per accepted
// step. Dense output is cubic Hermite over the accepted step, which is
// enough to localise threshold/brownout events to ~1 us.
//
// A step has one form, Rk23StepAttempt: attempt_open() chooses the step
// size and exposes the stage inputs, the three stage derivatives are
// evaluated, and attempt_close() accepts or rejects and scans the events.
// step_window() is those three parts for one trajectory; the lockstep
// stepper (ehsim/rk23_batch) calls the same two halves and evaluates the
// stages across lanes.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "ehsim/ode.hpp"
#include "ehsim/stepper_pi.hpp"

namespace pns::ehsim {

/// The Bogacki-Shampine tableau. Rk23Integrator's step_window() and the
/// batched stepper's stage_packed() (ehsim/rk23_batch) both evaluate
/// their stages and error norm through these helpers, so the two paths
/// share every coefficient and every association order. The helpers are
/// bit-safe only in a TU built with -ffp-contract=off (a PUBLIC option
/// of the pns target, CMakeLists.txt); anywhere else the compiler may
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

/// The step's error norm: the error scaled by
/// atol + rtol * max(|y0|, |y1|), as a one-component RMS. It stays
/// sqrt(e * e) rather than |e|: the two differ where e * e under- or
/// overflows, and the byte-frozen rk23 outputs come from this form.
inline double error_norm(double err, double y0, double y1, double rel_tol,
                         double abs_tol) {
  const double scale =
      abs_tol + rel_tol * std::max(std::abs(y0), std::abs(y1));
  const double e = err / scale;
  return std::sqrt(e * e);
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
  /// Direct root solve on the dense-output cubic (ehsim/dense_output.hpp).
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

/// One step attempt of an open window, the one form of a step:
/// attempt_open() (runaway guard, step-size choice) fills the step size
/// and the stage inputs, the caller evaluates the three remaining stage
/// derivatives and the error norm through bs23::, and attempt_close()
/// accepts or rejects it. step_window() does this for one trajectory;
/// the batched stepper (ehsim/rk23_batch) stages it across lanes with the
/// same arithmetic.
struct Rk23StepAttempt {
  // Filled by attempt_open():
  double h = 0.0;           ///< step size of this attempt
  bool end_capped = false;  ///< h shortened only to land on t_end
  double h_limit = 0.0;     ///< min(h_, max_step) before the end cap
  double t = 0.0;           ///< time at the start of the attempt
  double y = 0.0;           ///< state at the start of the attempt
  double k1 = 0.0;          ///< FSAL stage: derivative at (t, y)
  // Filled by the caller before attempt_close():
  double k2 = 0.0, k3 = 0.0, k4 = 0.0;
  double ynew = 0.0;  ///< 3rd-order solution at t + h
  double yerr = 0.0;  ///< embedded 2nd-order error estimate
  double err = 0.0;   ///< scaled error norm of yerr
};

/// Single-trajectory adaptive integrator. Typical use:
///
///   Rk23Integrator ig(system, opts);
///   ig.reset(0.0, v0);
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
  void reset(double t0, double y0);

  double time() const { return t_; }
  double state() const { return y_; }

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
  /// equals what advance() would have returned. It is attempt_open(),
  /// the three stage evaluations and attempt_close().
  bool step_window(IntegrationResult& result);

  /// First half of a step: runaway guard and step-size choice, and the
  /// attempt's stage inputs (t, y, the FSAL k1). Returns false (and
  /// completes `result`) when the window is already done.
  bool attempt_open(Rk23StepAttempt& at, IntegrationResult& result);

  /// Second half of a step: accept/reject, step-size control, event scan
  /// and possible rewind. Same return convention as step_window(). The
  /// caller must have filled k2..k4/ynew/yerr/err through bs23:: as
  /// step_window() does; the trajectory is then bit-identical to it.
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
  double interpolate(double t) const;

  double initial_step_guess(double t_end) const;

  const OdeSystem* system_;
  Rk23Options opt_;

  double t_ = 0.0;
  double y_ = 0.0;
  double f0_ = 0.0;  // derivative at (t_, y_) -- FSAL cache
  bool have_f0_ = false;

  // Last accepted step (for dense output / event localisation).
  double step_t0_ = 0.0, step_t1_ = 0.0;
  double step_y0_ = 0.0, step_y1_ = 0.0, step_f0_ = 0.0, step_f1_ = 0.0;

  // Event values across a step. advance() is allocation-free in steady
  // state: these grow once to the largest event count seen and are then
  // reused across calls.
  std::vector<double> g_prev_, g_curr_;

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
