// Lockstep round executor over N open RK23 integration windows.
//
// Rk23BatchStepper drives several independent Rk23Integrators through
// their open windows (begin_window .. window completion) in round-robin
// rounds: every lane still in lockstep attempts exactly one step per
// round, in lane order. Because each lane's numerics live entirely
// inside its own integrator and every step is the integrator's one step
// form -- attempt_open(), the stages, attempt_close() (ehsim/rk23.hpp) --
// the *interleave* is pure execution strategy: per lane, the sequence of
// floating-point operations -- and therefore the trajectory, the event
// roots, every output bit -- is exactly what a scalar advance() would
// produce, for any batch width and any lane order.
//
// Packed rounds: given a BatchRhs bound to the lanes' circuits, a round
// with at least two lanes in lockstep opens every lane's attempt
// (attempt_open), evaluates the three remaining RK stages and the error
// norm across the whole active set -- the stage arithmetic lane by lane
// through the integrator's own bs23:: helpers, the derivative
// evaluations through the BatchRhs with the exact-mode PV Newton solves
// batched (ehsim/solar_cell_simd.hpp) -- and closes each attempt in lane
// order (attempt_close). A round with one lane in lockstep, or any round
// without a BatchRhs, steps each lane through step_window(): one lane
// has nothing to pack across. Both forms replicate the scalar sequence
// exactly, so the choice changes scheduling, never bits.
//
// Divergence fallback: a lane whose window drags on (its step size
// collapsed while its peers finished -- e.g. a stiff transient after
// brownout) stops holding the batch hostage after `divergence_rounds`
// attempts. It leaves lockstep and finishes the window in a tight scalar
// loop on the spot ("tail"). The calls it executes are the same calls in
// the same order, so the fallback cannot change its results either; it
// only changes who waits for whom.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ehsim/ode.hpp"
#include "ehsim/rk23.hpp"

namespace pns::ehsim {

class BatchRhs;

/// Where a lane stands in the batch lifecycle.
enum class LaneStatus : std::uint8_t {
  kIdle,      ///< between windows: needs a plan before it can step
  kLockstep,  ///< window open, stepping in the shared rounds
  kDone,      ///< reached its end time
};

struct Rk23BatchOptions {
  /// Step attempts a lane may spend on one window inside the rounds
  /// before it leaves lockstep and finishes the window scalar. Purely a
  /// scheduling knob: results are bit-identical for any value >= 1.
  std::uint32_t divergence_rounds = 64;
};

/// Aggregate counters across every run_rounds() call of one stepper.
struct BatchStepStats {
  std::uint64_t rounds = 0;          ///< lockstep rounds executed
  std::uint64_t lockstep_steps = 0;  ///< step attempts inside rounds
  std::uint64_t tail_steps = 0;      ///< attempts finishing divergent lanes
  std::uint64_t divergences = 0;     ///< lane-windows that left lockstep
  std::uint64_t event_windows = 0;   ///< windows closed by an event root
  std::uint64_t simd_lane_steps = 0; ///< lane attempts staged across lanes
};

class Rk23BatchStepper {
 public:
  explicit Rk23BatchStepper(Rk23BatchOptions options = {});

  /// Runs every kLockstep lane to window completion, packing the rounds
  /// through `rhs` when it is non-null and at least two lanes are in
  /// lockstep (see the file comment).
  ///
  /// Preconditions, per lane i with status[i] == kLockstep:
  /// integrators[i] has a freshly opened window (begin_window returned
  /// true) whose result accumulates into results[i]. A non-null `rhs`
  /// must be bound to the circuits the integrators integrate, indexed by
  /// lane. Lanes in any other status are left untouched.
  ///
  /// On return every such lane is kIdle: its window completed (results[i]
  /// is exactly what a scalar advance() would have returned). Windows
  /// that closed on an event root leave the integrator stopped at the
  /// root, ready for the caller to dispatch and re-plan.
  void run_rounds(std::span<Rk23Integrator* const> integrators,
                  std::span<IntegrationResult> results,
                  std::span<LaneStatus> status, BatchRhs* rhs);

  const BatchStepStats& stats() const { return stats_; }

 private:
  /// Bookkeeping after lane `i`'s attempt of a round (`more`: its window
  /// is still open): closes a completed window, or finishes a divergent
  /// one in the scalar tail, leaving `status` kIdle. Returns true while
  /// the lane stays in lockstep.
  bool settle(std::size_t i, bool more, Rk23Integrator& ig,
              IntegrationResult& result, LaneStatus& status);

  /// Evaluates the RK stages and error norms of the opened attempts of
  /// every lane in active_ and writes them back into attempts_ ready for
  /// attempt_close().
  void stage_packed(std::span<Rk23Integrator* const> integrators,
                    BatchRhs& rhs);

  Rk23BatchOptions opt_;
  BatchStepStats stats_;

  // Scratch reused across rounds and calls.
  std::vector<std::uint32_t> rounds_;      // lane-indexed: attempts spent
                                           // on the open window
  std::vector<Rk23StepAttempt> attempts_;  // lane-indexed
  std::vector<std::size_t> active_;        // lane ids staging this round
  std::vector<double> ts_, ys_, k_;        // per active lane: stage time,
                                           // stage state, derivative
};

}  // namespace pns::ehsim
