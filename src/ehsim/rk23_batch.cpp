#include "ehsim/rk23_batch.hpp"

#include <cmath>

#include "ehsim/solar_cell_simd.hpp"
#include "util/contracts.hpp"
#include "util/simd.hpp"

namespace pns::ehsim {

Rk23BatchStepper::Rk23BatchStepper(Rk23BatchOptions options)
    : opt_(options) {
  PNS_EXPECTS(opt_.divergence_rounds >= 1);
}

bool Rk23BatchStepper::settle(std::size_t i, bool more, Rk23Integrator& ig,
                              IntegrationResult& result, BatchState& state) {
  state.observe(i, ig);
  if (more) {
    if (state.rounds[i] < opt_.divergence_rounds) return true;
    // Step divergence: this lane's window is taking far longer than its
    // peers'. Finish it here with the very calls lockstep would
    // eventually have issued -- same order, same bits -- so the
    // remaining lanes stop paying a round-robin visit to it.
    state.status[i] = LaneStatus::kTail;
    ++stats_.divergences;
    while (ig.step_window(result)) {
      ++state.tail_steps[i];
      ++stats_.tail_steps;
    }
    ++state.tail_steps[i];  // the closing attempt above
    ++stats_.tail_steps;
    state.observe(i, ig);
  }
  if (result.event_fired) ++stats_.event_windows;
  state.status[i] = LaneStatus::kIdle;
  return false;
}

void Rk23BatchStepper::run_rounds(
    std::span<Rk23Integrator* const> integrators,
    std::span<IntegrationResult> results, BatchState& state, BatchRhs* rhs) {
  const std::size_t n = state.size();
  PNS_EXPECTS(integrators.size() == n);
  PNS_EXPECTS(results.size() == n);
  if (rhs != nullptr) attempts_.resize(n);

  std::size_t open = state.count(LaneStatus::kLockstep);
  while (open > 0) {
    ++stats_.rounds;
    // Stage and pack only when there is something to pack across; a lone
    // lane steps through step_window(), which computes the same bits.
    const bool packed = rhs != nullptr && open >= 2;

    active_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (state.status[i] != LaneStatus::kLockstep) continue;
      Rk23Integrator& ig = *integrators[i];
      ++state.rounds[i];
      ++state.lockstep_steps[i];
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
      if (!settle(i, more, ig, results[i], state)) --open;
    }
    if (active_.empty()) continue;

    stage_packed(integrators, *rhs);
    for (const std::size_t i : active_) {
      Rk23Integrator& ig = *integrators[i];
      const bool more = ig.attempt_close(attempts_[i], results[i]);
      if (!settle(i, more, ig, results[i], state)) --open;
    }
  }

  if (rhs != nullptr) stats_.kernel = rhs->stats();
}

void Rk23BatchStepper::stage_packed(
    std::span<Rk23Integrator* const> integrators, BatchRhs& rhs) {
  using Vec = simd::VecD<simd::kDefaultWidth>;
  constexpr std::size_t kW = simd::kDefaultWidth;

  const std::size_t m = active_.size();
  stats_.simd_lane_steps += m;
  ta_.resize(m);
  ya_.resize(m);
  ha_.resize(m);
  k1a_.resize(m);
  k2a_.resize(m);
  k3a_.resize(m);
  k4a_.resize(m);
  tsa_.resize(m);
  ysa_.resize(m);
  ynewa_.resize(m);
  yerra_.resize(m);
  erra_.resize(m);
  rtola_.resize(m);
  atola_.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const Rk23StepAttempt& at = attempts_[active_[j]];
    ta_[j] = at.t;
    ya_[j] = at.y;
    ha_[j] = at.h;
    k1a_[j] = at.k1;
    rtola_[j] = integrators[active_[j]]->options().rel_tol;
    atola_[j] = integrators[active_[j]]->options().abs_tol;
  }

  // --- stages, data-parallel across the active set --------------------
  // Each expression replicates the scalar step_window() line for n = 1
  // with the same association order; vector chunks and the scalar tail
  // are elementwise-identical (see util/simd.hpp). rhs.eval keeps each
  // lane's derivative evaluation order exactly scalar.
  const std::span<const std::size_t> ids(active_.data(), m);
  std::size_t j = 0;

  // Stage 2: ytmp = y + h * 0.5 * k1 at t + 0.5 * h.
  for (j = 0; j + kW <= m; j += kW) {
    const Vec t = Vec::load(&ta_[j]), y = Vec::load(&ya_[j]),
              h = Vec::load(&ha_[j]), k1 = Vec::load(&k1a_[j]);
    const Vec half = Vec::broadcast(0.5);
    (t + half * h).store(&tsa_[j]);
    (y + h * half * k1).store(&ysa_[j]);
  }
  for (; j < m; ++j) {
    tsa_[j] = ta_[j] + 0.5 * ha_[j];
    ysa_[j] = ya_[j] + ha_[j] * 0.5 * k1a_[j];
  }
  rhs.eval(ids, tsa_.data(), ysa_.data(), k2a_.data());

  // Stage 3: ytmp = y + h * 0.75 * k2 at t + 0.75 * h.
  for (j = 0; j + kW <= m; j += kW) {
    const Vec t = Vec::load(&ta_[j]), y = Vec::load(&ya_[j]),
              h = Vec::load(&ha_[j]), k2 = Vec::load(&k2a_[j]);
    const Vec q = Vec::broadcast(0.75);
    (t + q * h).store(&tsa_[j]);
    (y + h * q * k2).store(&ysa_[j]);
  }
  for (; j < m; ++j) {
    tsa_[j] = ta_[j] + 0.75 * ha_[j];
    ysa_[j] = ya_[j] + ha_[j] * 0.75 * k2a_[j];
  }
  rhs.eval(ids, tsa_.data(), ysa_.data(), k3a_.data());

  // Stage 4: ynew = y + h * (2/9 k1 + 1/3 k2 + 4/9 k3) at t + h.
  for (j = 0; j + kW <= m; j += kW) {
    const Vec t = Vec::load(&ta_[j]), y = Vec::load(&ya_[j]),
              h = Vec::load(&ha_[j]), k1 = Vec::load(&k1a_[j]),
              k2 = Vec::load(&k2a_[j]), k3 = Vec::load(&k3a_[j]);
    const Vec b1 = Vec::broadcast(2.0 / 9.0), b2 = Vec::broadcast(1.0 / 3.0),
              b3 = Vec::broadcast(4.0 / 9.0);
    (t + h).store(&tsa_[j]);
    (y + h * (b1 * k1 + b2 * k2 + b3 * k3)).store(&ynewa_[j]);
  }
  for (; j < m; ++j) {
    tsa_[j] = ta_[j] + ha_[j];
    ynewa_[j] = ya_[j] + ha_[j] * (2.0 / 9.0 * k1a_[j] +
                                   1.0 / 3.0 * k2a_[j] + 4.0 / 9.0 * k3a_[j]);
  }
  rhs.eval(ids, tsa_.data(), ynewa_.data(), k4a_.data());

  // Embedded error: z = y + h * (7/24 k1 + 1/4 k2 + 1/3 k3 + 1/8 k4),
  // yerr = ynew - z, err = sqrt((yerr / (atol + rtol*max(|y|,|ynew|)))^2)
  // -- error_norm() specialised to dimension 1 (acc/1.0 is exact).
  for (j = 0; j + kW <= m; j += kW) {
    const Vec y = Vec::load(&ya_[j]), h = Vec::load(&ha_[j]),
              k1 = Vec::load(&k1a_[j]), k2 = Vec::load(&k2a_[j]),
              k3 = Vec::load(&k3a_[j]), k4 = Vec::load(&k4a_[j]),
              ynew = Vec::load(&ynewa_[j]);
    const Vec e1 = Vec::broadcast(7.0 / 24.0), e2 = Vec::broadcast(0.25),
              e3 = Vec::broadcast(1.0 / 3.0), e4 = Vec::broadcast(0.125);
    const Vec z = y + h * (e1 * k1 + e2 * k2 + e3 * k3 + e4 * k4);
    const Vec yerr = ynew - z;
    yerr.store(&yerra_[j]);
    const Vec scale = Vec::load(&atola_[j]) +
                      Vec::load(&rtola_[j]) * vmax(vabs(y), vabs(ynew));
    const Vec e = yerr / scale;
    (e * e).store(&erra_[j]);
  }
  for (; j < m; ++j) {
    const double z =
        ya_[j] + ha_[j] * (7.0 / 24.0 * k1a_[j] + 0.25 * k2a_[j] +
                           1.0 / 3.0 * k3a_[j] + 0.125 * k4a_[j]);
    yerra_[j] = ynewa_[j] - z;
    const double scale =
        atola_[j] + rtola_[j] * std::max(std::abs(ya_[j]),
                                         std::abs(ynewa_[j]));
    const double e = yerra_[j] / scale;
    erra_[j] = e * e;
  }
  for (j = 0; j < m; ++j) erra_[j] = std::sqrt(erra_[j]);

  for (j = 0; j < m; ++j) {
    Rk23StepAttempt& at = attempts_[active_[j]];
    at.k2 = k2a_[j];
    at.k3 = k3a_[j];
    at.k4 = k4a_[j];
    at.ynew = ynewa_[j];
    at.yerr = yerra_[j];
    at.err = erra_[j];
  }
}

}  // namespace pns::ehsim
