#include "ehsim/rk23.hpp"

#include <algorithm>
#include <cmath>

#include "ehsim/dense_output.hpp"
#include "util/contracts.hpp"

namespace pns::ehsim {
namespace {

double error_norm(std::span<const double> err, std::span<const double> y0,
                  std::span<const double> y1, double rel_tol,
                  double abs_tol) {
  double acc = 0.0;
  for (std::size_t i = 0; i < err.size(); ++i) {
    const double e =
        bs23::scaled_error(err[i], y0[i], y1[i], rel_tol, abs_tol);
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(err.size()));
}

}  // namespace

Rk23Integrator::Rk23Integrator(const OdeSystem& system, Rk23Options options)
    : system_(&system), opt_(options) {
  PNS_EXPECTS(opt_.rel_tol > 0.0);
  PNS_EXPECTS(opt_.abs_tol > 0.0);
  PNS_EXPECTS(opt_.max_step > 0.0);
  const std::size_t n = system_->dimension();
  PNS_EXPECTS(n >= 1);
  y_.resize(n);
  f0_.resize(n);
  step_y0_.resize(n);
  step_y1_.resize(n);
  step_f0_.resize(n);
  step_f1_.resize(n);
  k1_.resize(n);
  k2_.resize(n);
  k3_.resize(n);
  k4_.resize(n);
  ytmp_.resize(n);
  yerr_.resize(n);
  ynew_.resize(n);
  event_y_.resize(n);
}

void Rk23Integrator::reset(double t0, std::span<const double> y0) {
  PNS_EXPECTS(y0.size() == y_.size());
  pi_.reset();
  t_ = t0;
  std::copy(y0.begin(), y0.end(), y_.begin());
  have_f0_ = false;
  h_ = opt_.initial_step;
  step_t0_ = step_t1_ = t0;
  std::copy(y0.begin(), y0.end(), step_y0_.begin());
  std::copy(y0.begin(), y0.end(), step_y1_.begin());
}

double Rk23Integrator::initial_step_guess(double t_end) const {
  // Tolerance-scaled norms of state and derivative (SciPy-style h0): the
  // first step should change the scaled state by about 1 %. Starting small
  // also avoids landing on isolated zeros of the embedded error estimator
  // (for y' = lambda*y the BS23 estimator vanishes at h*lambda = -1).
  double d0 = 0.0, d1 = 0.0;
  for (std::size_t i = 0; i < y_.size(); ++i) {
    const double scale = opt_.abs_tol + opt_.rel_tol * std::abs(y_[i]);
    d0 = std::max(d0, std::abs(y_[i]) / scale);
    d1 = std::max(d1, std::abs(f0_[i]) / scale);
  }
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
    system_->derivatives(t_, y_, std::span<double>(f0_));
    have_f0_ = true;
  }
  if (h_ <= 0.0) h_ = initial_step_guess(t_end);

  for (std::size_t e = 0; e < events.size(); ++e)
    g_prev_[e] = events[e].eval(t_, y_);

  win_t_end_ = t_end;
  win_events_ = events;
  win_steps_ = 0;
  return true;
}

bool Rk23Integrator::step_prologue(Rk23StepAttempt& at,
                                   IntegrationResult& result) {
  if (t_ < win_t_end_) {
    PNS_ENSURES(++win_steps_ <= opt_.max_steps_per_call);

    at.h_limit = std::min(h_, opt_.max_step);
    const double h = std::min(at.h_limit, win_t_end_ - t_);
    // True when this step is shortened only to land on t_end (a segment
    // boundary), not because the controller asked for a small step.
    at.end_capped = h < at.h_limit;
    at.h = std::max(h, opt_.min_step);
    return true;
  }

  result.t = t_;
  return false;
}

bool Rk23Integrator::step_window(IntegrationResult& result) {
  Rk23StepAttempt at;
  if (!step_prologue(at, result)) return false;
  const double h = at.h;

  // Bogacki-Shampine tableau (bs23::, rk23.hpp). k1 is the FSAL
  // derivative from the previous step (f0_).
  std::copy(f0_.begin(), f0_.end(), k1_.begin());

  for (std::size_t i = 0; i < y_.size(); ++i)
    ytmp_[i] = bs23::stage2(y_[i], h, k1_[i]);
  system_->derivatives(t_ + bs23::kC2 * h, ytmp_, std::span<double>(k2_));

  for (std::size_t i = 0; i < y_.size(); ++i)
    ytmp_[i] = bs23::stage3(y_[i], h, k2_[i]);
  system_->derivatives(t_ + bs23::kC3 * h, ytmp_, std::span<double>(k3_));

  for (std::size_t i = 0; i < y_.size(); ++i)
    ynew_[i] = bs23::third_order(y_[i], h, k1_[i], k2_[i], k3_[i]);
  system_->derivatives(t_ + h, ynew_, std::span<double>(k4_));

  for (std::size_t i = 0; i < y_.size(); ++i)
    yerr_[i] = bs23::embedded_error(y_[i], ynew_[i], h, k1_[i], k2_[i],
                                    k3_[i], k4_[i]);

  const double err =
      error_norm(yerr_, y_, ynew_, opt_.rel_tol, opt_.abs_tol);
  return finish_attempt(h, at.end_capped, at.h_limit, err, result);
}

bool Rk23Integrator::attempt_open(Rk23StepAttempt& at,
                                  IntegrationResult& result) {
  PNS_EXPECTS(y_.size() == 1);
  if (!step_prologue(at, result)) return false;
  at.t = t_;
  at.y = y_[0];
  at.k1 = f0_[0];
  return true;
}

bool Rk23Integrator::attempt_close(const Rk23StepAttempt& at,
                                   IntegrationResult& result) {
  k1_[0] = at.k1;
  k2_[0] = at.k2;
  k3_[0] = at.k3;
  k4_[0] = at.k4;
  ynew_[0] = at.ynew;
  yerr_[0] = at.yerr;
  return finish_attempt(at.h, at.end_capped, at.h_limit, at.err, result);
}

bool Rk23Integrator::finish_attempt(double h, bool end_capped,
                                    double h_limit, double err,
                                    IntegrationResult& result) {
  const std::span<const EventSpec> events = win_events_;
  if (err > 1.0 && h > opt_.min_step) {
    ++total_rejected_;
    ++result.rejected_steps;
    h_ = h * (opt_.step_control == StepControl::kPi
                  ? pi_.on_rejected(err)
                  : std::max(0.2, 0.9 * std::pow(err, -1.0 / 3.0)));
    return true;
  }
  {

    // Accept the step.
    step_t0_ = t_;
    step_t1_ = t_ + h;
    std::copy(y_.begin(), y_.end(), step_y0_.begin());
    std::copy(ynew_.begin(), ynew_.end(), step_y1_.begin());
    std::copy(k1_.begin(), k1_.end(), step_f0_.begin());
    std::copy(k4_.begin(), k4_.end(), step_f1_.begin());

    t_ = step_t1_;
    std::copy(ynew_.begin(), ynew_.end(), y_.begin());
    std::copy(k4_.begin(), k4_.end(), f0_.begin());  // FSAL
    ++total_steps_;
    ++result.steps_taken;

    // Grow the step for the next iteration.
    if (opt_.step_control == StepControl::kPi) {
      // A step truncated to land exactly on t_end says nothing about
      // what the error tolerates: never let it shrink the learned step
      // size, and keep its artificially tiny error out of the PI
      // history (it would damp the next full step's growth). The
      // co-simulation loop ends a segment every few dozen ms, so paying
      // a re-grow at each boundary would dominate.
      const double grown =
          h * pi_.on_accepted(err, /*record_history=*/!end_capped);
      h_ = end_capped ? std::max(h_limit, grown) : grown;
    } else {
      const double growth =
          err > 1e-12 ? 0.9 * std::pow(err, -1.0 / 3.0) : 5.0;
      h_ = h * std::clamp(growth, 0.2, 5.0);
    }

    // --- event detection over the accepted step ------------------------
    double earliest_t = step_t1_;
    int earliest_tag = 0;
    std::size_t earliest_event = 0;
    bool earliest_dense = false;
    bool fired = false;
    // Dense-output cubic of component 0, built on demand once per step
    // (threshold events in kDenseRoot mode all localise against it).
    HermiteCubic cubic;
    bool have_cubic = false;
    for (std::size_t e = 0; e < events.size(); ++e) {
      g_curr_[e] = events[e].eval(t_, y_);
      if (!event_direction_matches(events[e].direction, g_prev_[e], g_curr_[e]))
        continue;
      double root_t = step_t1_;
      bool localised = false;
      if (opt_.event_localization == EventLocalization::kDenseRoot &&
          events[e].is_threshold() && h > 0.0) {
        if (!have_cubic) {
          cubic = HermiteCubic::from_step(h, step_y0_[0], step_y1_[0],
                                          step_f0_[0], step_f1_[0]);
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
          const double g_mid = event_value(events[e], mid);
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
      interpolate(earliest_t, std::span<double>(ytmp_));
      t_ = earliest_t;
      std::copy(ytmp_.begin(), ytmp_.end(), y_.begin());
      have_f0_ = false;  // state changed off the step grid
      // A dense-output root sits on the crossed side of the *cubic*, but
      // mapping s -> t -> s through interpolate() can land the committed
      // state an ulp short of the threshold. Left there, the next window
      // re-arms the same event on the un-crossed baseline and fires it at
      // the same instant forever (the crossing now sits at s = 0, where
      // t0 + s*h rounds back to t0 and the trajectory never advances).
      // Snap component 0 onto the threshold -- within the event tolerance
      // by construction, and a no-op whenever the round-trip already
      // landed on the crossed side. Bisection roots are evaluated through
      // interpolate() itself and cannot undershoot, so the original rk23
      // path is untouched bit for bit.
      if (earliest_dense) {
        const EventSpec& ev = events[earliest_event];
        const double g = y_[0] - ev.level;
        const bool undershot =
            (ev.direction == EventDirection::kRising && g < 0.0) ||
            (ev.direction == EventDirection::kFalling && g > 0.0) ||
            (ev.direction == EventDirection::kAny && g != 0.0 &&
             (g < 0.0) == (g_prev_[earliest_event] < 0.0));
        if (undershot) y_[0] = ev.level;
      }
      result.t = t_;
      result.event_fired = true;
      result.event_tag = earliest_tag;
      return false;
    }

    std::swap(g_prev_, g_curr_);
    return true;
  }
}

void Rk23Integrator::interpolate(double t, std::span<double> y_out) const {
  for (std::size_t i = 0; i < y_out.size(); ++i)
    y_out[i] = interpolate_one(t, i);
}

double Rk23Integrator::interpolate_one(double t, std::size_t i) const {
  const double h = step_t1_ - step_t0_;
  if (h <= 0.0) return step_y1_[i];
  const double s = std::clamp((t - step_t0_) / h, 0.0, 1.0);
  const double s2 = s * s, s3 = s2 * s;
  const double h00 = 2 * s3 - 3 * s2 + 1;
  const double h10 = s3 - 2 * s2 + s;
  const double h01 = -2 * s3 + 3 * s2;
  const double h11 = s3 - s2;
  return h00 * step_y0_[i] + h * h10 * step_f0_[i] + h01 * step_y1_[i] +
         h * h11 * step_f1_[i];
}

double Rk23Integrator::event_value(const EventSpec& ev, double t) {
  if (ev.is_threshold()) return interpolate_one(t, 0) - ev.level;
  interpolate(t, std::span<double>(event_y_));
  return ev.eval(t, event_y_);
}

}  // namespace pns::ehsim
