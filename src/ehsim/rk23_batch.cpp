#include "ehsim/rk23_batch.hpp"

#include <algorithm>

#include "ehsim/solar_cell_simd.hpp"
#include "util/contracts.hpp"

namespace pns::ehsim {

Rk23BatchStepper::Rk23BatchStepper(Rk23BatchOptions options)
    : opt_(options) {
  PNS_EXPECTS(opt_.divergence_rounds >= 1);
}

bool Rk23BatchStepper::settle(std::size_t i, bool more, Rk23Integrator& ig,
                              IntegrationResult& result, LaneStatus& status) {
  if (more) {
    if (rounds_[i] < opt_.divergence_rounds) return true;
    // Step divergence: this lane's window is taking far longer than its
    // peers'. Finish it here with the very calls lockstep would
    // eventually have issued -- same order, same bits -- so the
    // remaining lanes stop paying a round-robin visit to it.
    ++stats_.divergences;
    while (ig.step_window(result)) ++stats_.tail_steps;
    ++stats_.tail_steps;  // the closing attempt above
  }
  if (result.event_fired) ++stats_.event_windows;
  status = LaneStatus::kIdle;
  return false;
}

void Rk23BatchStepper::run_rounds(
    std::span<Rk23Integrator* const> integrators,
    std::span<IntegrationResult> results, std::span<LaneStatus> status,
    BatchRhs* rhs) {
  const std::size_t n = status.size();
  PNS_EXPECTS(integrators.size() == n);
  PNS_EXPECTS(results.size() == n);
  if (rhs != nullptr) attempts_.resize(n);
  rounds_.assign(n, 0);

  std::size_t open = static_cast<std::size_t>(
      std::count(status.begin(), status.end(), LaneStatus::kLockstep));
  while (open > 0) {
    ++stats_.rounds;
    // Stage and pack only when there is something to pack across; a lone
    // lane steps through step_window(), which computes the same bits.
    const bool packed = rhs != nullptr && open >= 2;

    active_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (status[i] != LaneStatus::kLockstep) continue;
      Rk23Integrator& ig = *integrators[i];
      ++rounds_[i];
      ++stats_.lockstep_steps;
      bool more = false;
      if (!packed) {
        more = ig.step_window(results[i]);
      } else if (ig.attempt_open(attempts_[i], results[i])) {
        active_.push_back(i);
        continue;
      }
      // Otherwise the packed lane's window reached t_end last round: this
      // was its closing call, the one step_window() pays too.
      if (!settle(i, more, ig, results[i], status[i])) --open;
    }
    if (active_.empty()) continue;

    stage_packed(integrators, *rhs);
    for (const std::size_t i : active_) {
      Rk23Integrator& ig = *integrators[i];
      const bool more = ig.attempt_close(attempts_[i], results[i]);
      if (!settle(i, more, ig, results[i], status[i])) --open;
    }
  }
}

void Rk23BatchStepper::stage_packed(
    std::span<Rk23Integrator* const> integrators, BatchRhs& rhs) {
  const std::size_t m = active_.size();
  stats_.simd_lane_steps += m;
  ts_.resize(m);
  ys_.resize(m);
  k_.resize(m);
  const std::span<const std::size_t> ids(active_);
  auto attempt = [&](std::size_t j) -> Rk23StepAttempt& {
    return attempts_[active_[j]];
  };

  // Each stage is step_window()'s stage evaluation through the same
  // bs23:: helpers; rhs.eval keeps each lane's derivative evaluation
  // order exactly scalar and batches the PV solves across lanes.
  for (std::size_t j = 0; j < m; ++j) {
    const Rk23StepAttempt& at = attempt(j);
    ts_[j] = at.t + bs23::kC2 * at.h;
    ys_[j] = bs23::stage2(at.y, at.h, at.k1);
  }
  rhs.eval(ids, ts_.data(), ys_.data(), k_.data());

  for (std::size_t j = 0; j < m; ++j) {
    Rk23StepAttempt& at = attempt(j);
    at.k2 = k_[j];
    ts_[j] = at.t + bs23::kC3 * at.h;
    ys_[j] = bs23::stage3(at.y, at.h, at.k2);
  }
  rhs.eval(ids, ts_.data(), ys_.data(), k_.data());

  for (std::size_t j = 0; j < m; ++j) {
    Rk23StepAttempt& at = attempt(j);
    at.k3 = k_[j];
    ts_[j] = at.t + at.h;
    at.ynew = bs23::third_order(at.y, at.h, at.k1, at.k2, at.k3);
    ys_[j] = at.ynew;
  }
  rhs.eval(ids, ts_.data(), ys_.data(), k_.data());

  for (std::size_t j = 0; j < m; ++j) {
    Rk23StepAttempt& at = attempt(j);
    at.k4 = k_[j];
    at.yerr = bs23::embedded_error(at.y, at.ynew, at.h, at.k1, at.k2, at.k3,
                                   at.k4);
    const Rk23Options& o = integrators[active_[j]]->options();
    at.err = bs23::error_norm(at.yerr, at.y, at.ynew, o.rel_tol, o.abs_tol);
  }
}

}  // namespace pns::ehsim
