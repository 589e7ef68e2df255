#include "ehsim/rk23.hpp"

#include <algorithm>
#include <cmath>

#include "ehsim/dense_output.hpp"
#include "util/contracts.hpp"

namespace pns::ehsim {

Rk23Integrator::Rk23Integrator(const OdeSystem& system, Rk23Options options)
    : system_(&system), opt_(options) {
  PNS_EXPECTS(opt_.rel_tol > 0.0);
  PNS_EXPECTS(opt_.abs_tol > 0.0);
  PNS_EXPECTS(opt_.max_step > 0.0);
}

void Rk23Integrator::reset(double t0, double y0) {
  pi_.reset();
  t_ = t0;
  y_ = y0;
  have_f0_ = false;
  h_ = opt_.initial_step;
  step_t0_ = step_t1_ = t0;
  step_y0_ = step_y1_ = y0;
}

double Rk23Integrator::initial_step_guess(double t_end) const {
  // Tolerance-scaled norms of state and derivative (SciPy-style h0): the
  // first step should change the scaled state by about 1 %. Starting small
  // also avoids landing on isolated zeros of the embedded error estimator
  // (for y' = lambda*y the BS23 estimator vanishes at h*lambda = -1).
  const double scale = opt_.abs_tol + opt_.rel_tol * std::abs(y_);
  const double d0 = std::max(0.0, std::abs(y_) / scale);
  const double d1 = std::max(0.0, std::abs(f0_) / scale);
  double h = (d0 >= 1e-5 && d1 >= 1e-5) ? 0.01 * d0 / d1 : 1e-6;
  h = std::clamp(h, opt_.min_step * 10.0, opt_.max_step);
  return std::min(h, std::max(t_end - t_, opt_.min_step));
}

IntegrationResult Rk23Integrator::advance(double t_end,
                                          std::span<const EventSpec> events) {
  IntegrationResult result;
  if (!begin_window(t_end, events, result)) return result;
  while (step_window(result)) {
  }
  return result;
}

bool Rk23Integrator::begin_window(double t_end,
                                  std::span<const EventSpec> events,
                                  IntegrationResult& result) {
  result = {};
  result.t = t_;
  if (t_end <= t_) return false;

  if (g_prev_.size() < events.size()) {
    g_prev_.resize(events.size());
    g_curr_.resize(events.size());
  }

  if (!have_f0_) {
    f0_ = system_->derivative(t_, y_);
    have_f0_ = true;
  }
  if (h_ <= 0.0) h_ = initial_step_guess(t_end);

  for (std::size_t e = 0; e < events.size(); ++e)
    g_prev_[e] = events[e].eval(y_);

  win_t_end_ = t_end;
  win_events_ = events;
  win_steps_ = 0;
  return true;
}

bool Rk23Integrator::step_window(IntegrationResult& result) {
  Rk23StepAttempt at;
  if (!attempt_open(at, result)) return false;

  // Bogacki-Shampine tableau (bs23::, rk23.hpp). k1 is the FSAL
  // derivative from the previous step.
  at.k2 = system_->derivative(at.t + bs23::kC2 * at.h,
                              bs23::stage2(at.y, at.h, at.k1));
  at.k3 = system_->derivative(at.t + bs23::kC3 * at.h,
                              bs23::stage3(at.y, at.h, at.k2));
  at.ynew = bs23::third_order(at.y, at.h, at.k1, at.k2, at.k3);
  at.k4 = system_->derivative(at.t + at.h, at.ynew);
  at.yerr = bs23::embedded_error(at.y, at.ynew, at.h, at.k1, at.k2, at.k3,
                                 at.k4);
  at.err =
      bs23::error_norm(at.yerr, at.y, at.ynew, opt_.rel_tol, opt_.abs_tol);
  return attempt_close(at, result);
}

bool Rk23Integrator::attempt_open(Rk23StepAttempt& at,
                                  IntegrationResult& result) {
  if (t_ < win_t_end_) {
    PNS_ENSURES(++win_steps_ <= opt_.max_steps_per_call);

    at.h_limit = std::min(h_, opt_.max_step);
    const double h = std::min(at.h_limit, win_t_end_ - t_);
    // True when this step is shortened only to land on t_end (a segment
    // boundary), not because the controller asked for a small step.
    at.end_capped = h < at.h_limit;
    at.h = std::max(h, opt_.min_step);
    at.t = t_;
    at.y = y_;
    at.k1 = f0_;
    return true;
  }

  result.t = t_;
  return false;
}

bool Rk23Integrator::attempt_close(const Rk23StepAttempt& at,
                                   IntegrationResult& result) {
  const std::span<const EventSpec> events = win_events_;
  const double h = at.h;
  const double err = at.err;
  if (err > 1.0 && h > opt_.min_step) {
    ++total_rejected_;
    ++result.rejected_steps;
    h_ = h * (opt_.step_control == StepControl::kPi
                  ? pi_.on_rejected(err)
                  : std::max(0.2, 0.9 * std::pow(err, -1.0 / 3.0)));
    return true;
  }

  // Accept the step.
  step_t0_ = t_;
  step_t1_ = t_ + h;
  step_y0_ = y_;
  step_y1_ = at.ynew;
  step_f0_ = at.k1;
  step_f1_ = at.k4;

  t_ = step_t1_;
  y_ = at.ynew;
  f0_ = at.k4;  // FSAL
  ++total_steps_;
  ++result.steps_taken;

  // Grow the step for the next iteration.
  if (opt_.step_control == StepControl::kPi) {
    // A step truncated to land exactly on t_end says nothing about what
    // the error tolerates: never let it shrink the learned step size, and
    // keep its artificially tiny error out of the PI history (it would
    // damp the next full step's growth). The co-simulation loop ends a
    // segment every few dozen ms, so paying a re-grow at each boundary
    // would dominate.
    const double grown =
        h * pi_.on_accepted(err, /*record_history=*/!at.end_capped);
    h_ = at.end_capped ? std::max(at.h_limit, grown) : grown;
  } else {
    const double growth =
        err > 1e-12 ? 0.9 * std::pow(err, -1.0 / 3.0) : 5.0;
    h_ = h * std::clamp(growth, 0.2, 5.0);
  }

  // --- event detection over the accepted step --------------------------
  double earliest_t = step_t1_;
  int earliest_tag = 0;
  std::size_t earliest_event = 0;
  bool earliest_dense = false;
  bool fired = false;
  // Dense-output cubic, built on demand once per step (every event in
  // kDenseRoot mode localises against it).
  HermiteCubic cubic;
  bool have_cubic = false;
  for (std::size_t e = 0; e < events.size(); ++e) {
    g_curr_[e] = events[e].eval(y_);
    if (!event_direction_matches(events[e].direction, g_prev_[e], g_curr_[e]))
      continue;
    double root_t = step_t1_;
    bool localised = false;
    if (opt_.event_localization == EventLocalization::kDenseRoot &&
        h > 0.0) {
      if (!have_cubic) {
        cubic =
            HermiteCubic::from_step(h, step_y0_, step_y1_, step_f0_, step_f1_);
        have_cubic = true;
      }
      const CrossingResult cr = earliest_crossing(
          cubic, events[e].level, events[e].direction, opt_.event_tol / h);
      if (cr.found) {
        root_t = step_t0_ + cr.s * h;
        localised = true;
      }
    }
    if (!localised) {
      // Bisect for the root inside [step_t0_, step_t1_].
      double lo = step_t0_, hi = step_t1_;
      double g_lo = g_prev_[e];
      for (int it = 0; it < 64 && (hi - lo) > opt_.event_tol; ++it) {
        const double mid = 0.5 * (lo + hi);
        const double g_mid = events[e].eval(interpolate(mid));
        const bool crossed =
            event_direction_matches(events[e].direction, g_lo, g_mid);
        if (crossed) {
          hi = mid;
        } else {
          lo = mid;
          g_lo = g_mid;
        }
      }
      root_t = hi;
    }
    if (!fired || root_t < earliest_t) {
      earliest_t = root_t;
      earliest_tag = events[e].tag;
      earliest_event = e;
      earliest_dense = localised;
      fired = true;
    }
  }

  if (fired) {
    // Rewind the trajectory to the event time.
    y_ = interpolate(earliest_t);
    t_ = earliest_t;
    have_f0_ = false;  // state changed off the step grid
    // A dense-output root sits on the crossed side of the *cubic*, but
    // mapping s -> t -> s through interpolate() can land the committed
    // state an ulp short of the threshold. Left there, the next window
    // re-arms the same event on the un-crossed baseline and fires it at
    // the same instant forever (the crossing now sits at s = 0, where
    // t0 + s*h rounds back to t0 and the trajectory never advances).
    // Snap the state onto the threshold -- within the event tolerance by
    // construction, and a no-op whenever the round-trip already landed on
    // the crossed side. Bisection roots are evaluated through
    // interpolate() itself and cannot undershoot, so the original rk23
    // path is untouched bit for bit.
    if (earliest_dense) {
      const EventSpec& ev = events[earliest_event];
      const double g = ev.eval(y_);
      const bool undershot =
          (ev.direction == EventDirection::kRising && g < 0.0) ||
          (ev.direction == EventDirection::kFalling && g > 0.0);
      if (undershot) y_ = ev.level;
    }
    result.t = t_;
    result.event_fired = true;
    result.event_tag = earliest_tag;
    return false;
  }

  std::swap(g_prev_, g_curr_);
  return true;
}

double Rk23Integrator::interpolate(double t) const {
  const double h = step_t1_ - step_t0_;
  if (h <= 0.0) return step_y1_;
  const double s = std::clamp((t - step_t0_) / h, 0.0, 1.0);
  const double s2 = s * s, s3 = s2 * s;
  const double h00 = 2 * s3 - 3 * s2 + 1;
  const double h10 = s3 - 2 * s2 + s;
  const double h01 = -2 * s3 + 3 * s2;
  const double h11 = s3 - s2;
  return h00 * step_y0_ + h * h10 * step_f0_ + h01 * step_y1_ +
         h * h11 * step_f1_;
}

}  // namespace pns::ehsim
