#include "sim/batch_engine.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace pns::sim {

BatchEngine::BatchEngine(std::vector<SimEngine*> lanes,
                         BatchEngineOptions options)
    : lanes_(std::move(lanes)),
      stepper_(ehsim::Rk23BatchOptions{options.divergence_rounds}),
      simd_(options.simd) {
  PNS_EXPECTS(!lanes_.empty());
  for (const SimEngine* lane : lanes_) PNS_EXPECTS(lane != nullptr);
  results_.resize(lanes_.size());
  window_results_.resize(lanes_.size());
  pending_commit_.assign(lanes_.size(), 0);
  status_.assign(lanes_.size(), ehsim::LaneStatus::kIdle);
}

std::vector<SimResult> BatchEngine::run() {
  PNS_EXPECTS(!ran_);
  ran_ = true;

  const std::size_t n = lanes_.size();
  std::vector<ehsim::Rk23Integrator*> integrators(n);
  for (std::size_t i = 0; i < n; ++i) {
    lanes_[i]->begin();
    integrators[i] = &lanes_[i]->integrator();
  }
  if (simd_) {
    std::vector<const ehsim::EhCircuit*> circuits(n);
    for (std::size_t i = 0; i < n; ++i) circuits[i] = &lanes_[i]->circuit();
    rhs_.bind(circuits);
  }

  std::size_t running = n;
  while (running > 0) {
    ++stats_.supersteps;

    // Plan phase: every idle lane decides its next segment and opens an
    // integration window (or commits a coast / trivial segment inline).
    for (std::size_t i = 0; i < n; ++i) {
      if (status_[i] != ehsim::LaneStatus::kIdle) continue;
      SimEngine& e = *lanes_[i];
      if (e.finished()) {
        results_[i] = e.finish();
        status_[i] = ehsim::LaneStatus::kDone;
        --running;
        continue;
      }
      SimEngine::SegmentPlan plan = e.plan_segment();
      if (plan.coasted) {
        // A coast certifies a quiescent span ahead: nothing here for
        // lockstep to amortise. Commit it and retire the lane to an
        // independent scalar finish, executed exactly as SimEngine::run()
        // would: the lane has left the batch, not the contract.
        e.commit_segment(plan.coast_result);
        ++stats_.coast_retirements;
        results_[i] = e.run_remaining();
        status_[i] = ehsim::LaneStatus::kDone;
        --running;
        continue;
      }
      if (!integrators[i]->begin_window(plan.t_stop, e.events(),
                                        window_results_[i])) {
        // Zero-width window (t_stop <= t): commit the trivial result,
        // exactly as run()'s advance() would have.
        e.commit_segment(window_results_[i]);
        continue;
      }
      pending_commit_[i] = 1;
      status_[i] = ehsim::LaneStatus::kLockstep;
    }

    // Round phase: every open window steps to completion in lockstep;
    // divergent windows fall back to a scalar tail inside.
    stepper_.run_rounds(integrators, window_results_, status_,
                        simd_ ? &rhs_ : nullptr);

    // Commit phase: windows closed by an event root or by reaching their
    // stop point both commit here and rejoin at the next superstep.
    for (std::size_t i = 0; i < n; ++i) {
      if (!pending_commit_[i]) continue;
      PNS_EXPECTS(status_[i] == ehsim::LaneStatus::kIdle);
      lanes_[i]->commit_segment(window_results_[i]);
      pending_commit_[i] = 0;
    }
  }

  stats_.stepping = stepper_.stats();
  return std::move(results_);
}

}  // namespace pns::sim
