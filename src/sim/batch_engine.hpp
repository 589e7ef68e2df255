// Batched lockstep co-simulation driver.
//
// BatchEngine advances several independent SimEngines ("lanes") together:
// each superstep plans one segment per lane through the engines' stepped
// API (sim/engine.hpp), opens the resulting integration windows, and
// runs them to completion in shared lockstep rounds
// (ehsim/rk23_batch.hpp). Batching is an execution strategy only --
// every lane owns its full scalar state (engine, integrator, source,
// monitor), and per lane the sequence of calls is exactly what
// SimEngine::run() would have executed -- so a batched run is
// bit-identical to running each lane alone, for any width and any lane
// order. The differential-testing harness (tests/sim/test_batch_parity)
// holds this to "byte-identical", not "close".
//
// The driver's own per-lane state is one ehsim::LaneStatus (idle, in
// lockstep, done); everything else a lane knows lives in its engine and
// integrator.
//
// Lane retirement:
//   * event-root windows commit their segment and rejoin the batch at
//     the next superstep (threshold trips are the common case and stay
//     in lockstep);
//   * a lane that takes a coast has entered a provably quiescent regime
//     where its peers' dense stepping has nothing to amortise -- it
//     retires and finishes the remaining simulation independently in the
//     scalar loop;
//   * a lane whose window outlives the divergence budget leaves lockstep
//     for that window only (ehsim/rk23_batch.hpp) and rejoins.
#pragma once

#include <cstdint>
#include <vector>

#include "ehsim/rk23_batch.hpp"
#include "ehsim/solar_cell_simd.hpp"
#include "sim/engine.hpp"

namespace pns::sim {

struct BatchEngineOptions {
  /// Step attempts a lane may spend on one window inside the lockstep
  /// rounds before finishing that window scalar. Scheduling only; results
  /// are bit-identical for any value >= 1.
  std::uint32_t divergence_rounds = 64;
  /// Pack the lockstep rounds (ehsim::Rk23BatchStepper::run_rounds with a
  /// bound BatchRhs): whenever two or more lanes are in lockstep, RK
  /// stages and error norms are evaluated across lanes and the
  /// exact-mode PV Newton solves packed (ehsim/solar_cell_simd.hpp).
  /// Execution strategy only -- results stay bit-identical; on platforms
  /// where the packed kernel fails its startup self-test it degrades to
  /// scalar automatically.
  bool simd = false;
};

/// Aggregate counters of one BatchEngine::run().
struct BatchRunStats {
  std::uint64_t supersteps = 0;       ///< plan-rounds-commit cycles
  std::uint64_t coast_retirements = 0;  ///< lanes retired on a coast
  ehsim::BatchStepStats stepping;     ///< lockstep-round counters
};

/// Drives N engines to completion in lockstep. The engines (and
/// everything they reference) are owned by the caller and must outlive
/// the BatchEngine; each must be freshly constructed (not yet run).
class BatchEngine {
 public:
  explicit BatchEngine(std::vector<SimEngine*> lanes,
                       BatchEngineOptions options = {});

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// Runs every lane to completion and returns their results in lane
  /// order. Callable once.
  std::vector<SimResult> run();

  const BatchRunStats& stats() const { return stats_; }

 private:
  std::vector<SimEngine*> lanes_;
  std::vector<SimResult> results_;
  std::vector<ehsim::IntegrationResult> window_results_;
  /// Lanes whose window closed this superstep and still owes its
  /// commit_segment (cleared by the commit phase).
  std::vector<std::uint8_t> pending_commit_;
  std::vector<ehsim::LaneStatus> status_;
  ehsim::Rk23BatchStepper stepper_;
  ehsim::BatchRhs rhs_;  ///< bound in run() when simd_ is set
  BatchRunStats stats_;
  bool simd_ = false;
  bool ran_ = false;
};

}  // namespace pns::sim
