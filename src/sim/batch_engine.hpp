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
// Lanes leave as they finish: run(done) hands each lane's result over at
// the superstep where the lane is done, with its own share of the wall
// clock, and never touches the lane again -- the caller may report the
// row and free the lane while its batchmates keep running.
//
// Lane retirement:
//   * event-root windows commit their segment and rejoin the batch at
//     the next superstep (threshold trips are the common case and stay
//     in lockstep);
//   * a lane that takes a coast has entered a provably quiescent regime
//     where its peers' dense stepping has nothing to amortise -- it
//     retires and finishes the remaining simulation independently in the
//     scalar loop, and is handed over right after;
//   * a lane whose window outlives the divergence budget leaves lockstep
//     for that window only (ehsim/rk23_batch.hpp) and rejoins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
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
  /// exact-mode PV Newton solves batched (ehsim/solar_cell_simd.hpp).
  /// Execution strategy only -- results stay bit-identical; a platform
  /// where the batched solve fails its self-test stops the run instead.
  bool simd = false;
};

/// Aggregate counters of one BatchEngine::run().
struct BatchRunStats {
  std::uint64_t supersteps = 0;       ///< plan-rounds-commit cycles
  std::uint64_t coast_retirements = 0;  ///< lanes retired on a coast
  ehsim::BatchStepStats stepping;     ///< lockstep-round counters
};

/// Receives one lane the moment it is done: its index in the vector
/// given to the constructor, its result, and `cost_s`, the lane's share
/// of the run's wall-clock seconds (see BatchEngine::run).
using LaneDone =
    std::function<void(std::size_t lane, SimResult&& result, double cost_s)>;

/// Drives N engines to completion in lockstep. The engines (and
/// everything they reference) are owned by the caller and must outlive
/// the BatchEngine -- or, under run(done), the moment their lane is
/// handed to `done`; each must be freshly constructed (not yet run).
class BatchEngine {
 public:
  explicit BatchEngine(std::vector<SimEngine*> lanes,
                       BatchEngineOptions options = {});

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// Runs every lane to completion and returns their results in lane
  /// order. Callable once (shares the guard of run(done)).
  std::vector<SimResult> run();

  /// Runs every lane to completion, handing each to `done` at the
  /// superstep where it finishes rather than when the slowest lane does:
  /// in the plan phase once its engine reports finished(), or right after
  /// run_remaining() for a lane retired on a coast. Each lane reaches
  /// `done` exactly once, in completion order.
  ///
  /// Once a lane is handed over the BatchEngine never touches its engine
  /// (or anything the engine references) again, so `done` may destroy
  /// them on the spot -- a long batch then holds only its running lanes.
  ///
  /// `cost_s` splits the run's wall clock among the lanes: every stretch
  /// of it -- each superstep -- goes in equal shares to the lanes running
  /// through it, and a lane's own final work (finish(), or a coast
  /// commit and run_remaining()) is timed on its own and charged to it
  /// alone. The costs of all lanes thus sum to the run's wall, less what
  /// follows the last hand-over. The clock is read only at hand-overs,
  /// when the running set changes, not per superstep. Callable once.
  void run(const LaneDone& done);

  const BatchRunStats& stats() const { return stats_; }

 private:
  std::vector<SimEngine*> lanes_;
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
