#include "sim/batch_engine.hpp"

#include <chrono>
#include <utility>

#include "util/contracts.hpp"

namespace pns::sim {

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

BatchEngine::BatchEngine(std::vector<SimEngine*> lanes,
                         BatchEngineOptions options)
    : lanes_(std::move(lanes)),
      stepper_(ehsim::Rk23BatchOptions{options.divergence_rounds}),
      simd_(options.simd) {
  PNS_EXPECTS(!lanes_.empty());
  for (const SimEngine* lane : lanes_) PNS_EXPECTS(lane != nullptr);
  window_results_.resize(lanes_.size());
  pending_commit_.assign(lanes_.size(), 0);
  status_.assign(lanes_.size(), ehsim::LaneStatus::kIdle);
}

std::vector<SimResult> BatchEngine::run() {
  std::vector<SimResult> results(lanes_.size());
  run([&](std::size_t lane, SimResult&& result, double) {
    results[lane] = std::move(result);
  });
  return results;
}

void BatchEngine::run(const LaneDone& done) {
  PNS_EXPECTS(!ran_);
  ran_ = true;

  // Cost: every lane starts at run() and shares each stretch of wall
  // clock equally with the lanes running beside it, so one accumulator
  // -- the seconds charged so far to each lane still running -- serves
  // them all. It only moves when the running set changes, so the clock
  // is read at hand-overs, never per superstep.
  Clock::time_point mark = Clock::now();
  double shared_s = 0.0;
  std::size_t running = lanes_.size();

  // Hands lane i over: charges it the shared time up to now, times its
  // own final work (`finish`, which returns the result) on its own, and
  // never touches it again.
  const auto retire = [&](std::size_t i, auto&& finish) {
    const Clock::time_point start = Clock::now();
    shared_s += seconds(start - mark) / static_cast<double>(running);
    SimResult result = finish();
    mark = Clock::now();
    status_[i] = ehsim::LaneStatus::kDone;
    --running;
    done(i, std::move(result), shared_s + seconds(mark - start));
  };

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

  while (running > 0) {
    ++stats_.supersteps;

    // Plan phase: every idle lane decides its next segment and opens an
    // integration window (or commits a coast / trivial segment inline).
    for (std::size_t i = 0; i < n; ++i) {
      if (status_[i] != ehsim::LaneStatus::kIdle) continue;
      SimEngine& e = *lanes_[i];
      if (e.finished()) {
        retire(i, [&] { return e.finish(); });
        continue;
      }
      SimEngine::SegmentPlan plan = e.plan_segment();
      if (plan.coasted) {
        // A coast certifies a quiescent span ahead: nothing here for
        // lockstep to amortise. Commit it and retire the lane to an
        // independent scalar finish, executed exactly as SimEngine::run()
        // would: the lane has left the batch, not the contract.
        ++stats_.coast_retirements;
        retire(i, [&] {
          e.commit_segment(plan.coast_result);
          return e.run_remaining();
        });
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
}

}  // namespace pns::sim
