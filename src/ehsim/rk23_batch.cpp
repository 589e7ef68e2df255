#include "ehsim/rk23_batch.hpp"

#include <algorithm>
#include <cmath>

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

  // Each stage replicates the scalar step_window() line for n = 1 with
  // the same association order; rhs.eval keeps each lane's derivative
  // evaluation order exactly scalar and packs the PV solves across lanes.

  // Stage 2: ytmp = y + h * 0.5 * k1 at t + 0.5 * h.
  for (std::size_t j = 0; j < m; ++j) {
    const Rk23StepAttempt& at = attempt(j);
    ts_[j] = at.t + 0.5 * at.h;
    ys_[j] = at.y + at.h * 0.5 * at.k1;
  }
  rhs.eval(ids, ts_.data(), ys_.data(), k_.data());

  // Stage 3: ytmp = y + h * 0.75 * k2 at t + 0.75 * h.
  for (std::size_t j = 0; j < m; ++j) {
    Rk23StepAttempt& at = attempt(j);
    at.k2 = k_[j];
    ts_[j] = at.t + 0.75 * at.h;
    ys_[j] = at.y + at.h * 0.75 * at.k2;
  }
  rhs.eval(ids, ts_.data(), ys_.data(), k_.data());

  // Stage 4: ynew = y + h * (2/9 k1 + 1/3 k2 + 4/9 k3) at t + h.
  for (std::size_t j = 0; j < m; ++j) {
    Rk23StepAttempt& at = attempt(j);
    at.k3 = k_[j];
    ts_[j] = at.t + at.h;
    at.ynew = at.y + at.h * (2.0 / 9.0 * at.k1 + 1.0 / 3.0 * at.k2 +
                             4.0 / 9.0 * at.k3);
    ys_[j] = at.ynew;
  }
  rhs.eval(ids, ts_.data(), ys_.data(), k_.data());

  // Embedded error: z = y + h * (7/24 k1 + 1/4 k2 + 1/3 k3 + 1/8 k4),
  // yerr = ynew - z, err = sqrt((yerr / (atol + rtol*max(|y|,|ynew|)))^2)
  // -- error_norm() specialised to dimension 1 (acc/1.0 is exact).
  for (std::size_t j = 0; j < m; ++j) {
    Rk23StepAttempt& at = attempt(j);
    at.k4 = k_[j];
    const double z = at.y + at.h * (7.0 / 24.0 * at.k1 + 0.25 * at.k2 +
                                    1.0 / 3.0 * at.k3 + 0.125 * at.k4);
    at.yerr = at.ynew - z;
    const Rk23Options& o = integrators[active_[j]]->options();
    const double scale =
        o.abs_tol + o.rel_tol * std::max(std::abs(at.y), std::abs(at.ynew));
    const double e = at.yerr / scale;
    at.err = std::sqrt(e * e);
  }
}

}  // namespace pns::ehsim
