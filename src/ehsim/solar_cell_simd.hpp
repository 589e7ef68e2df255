// Batched PV solves for the lockstep co-simulation hot path.
//
// The batched lockstep engine (sim/batch_engine + ehsim/rk23_batch) steps
// many independent scenarios in lockstep; at every RK stage each lane asks
// its circuit for dVC/dt, and for exact-mode solar scenarios that means a
// damped Newton solve of the implicit diode equation
// (ehsim/solar_cell.hpp). This header batches those per-lane solves:
//
//   * newton_current_batch -- interleaved Newton: chunks of up to four
//     lanes step through newton_next() round by round, lanes drop out as
//     they converge, and the chunk retires when all lanes have. The
//     interleave hands the CPU independent lanes' work to overlap.
//   * BatchRhs -- binds a batch of EhCircuits and evaluates a whole
//     active-lane set's derivatives with the Newton solves batched.
//
// Table lookups are not batched: a bilinear lookup is too cheap to repay
// the bookkeeping, so BatchRhs answers one inline, exactly as
// PvSource::current does. A sweep unit holds a single PV mode
// (sweep::batch_compatible), so a tabulated unit never batches at all.
//
// Bit-identity contract: every lane runs the scalar solver's iteration
// sequence through the very same newton_next()/newton_converged(), so
// the results are *bit-identical* to SolarCell::current_from_photo_counted
// on every input, iteration counts included. simd_kernel_self_test()
// re-proves the claim on the running platform, and the first batched
// solve of a process refuses to run if it fails.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ehsim/circuit.hpp"
#include "ehsim/solar_cell.hpp"
#include "ehsim/sources.hpp"

namespace pns::ehsim {

/// One pending Newton solve: cell parameters, operating point, seed.
struct NewtonLane {
  const SolarCell* cell = nullptr;
  double v = 0.0;     ///< terminal voltage
  double il = 0.0;    ///< photo-current (residual target)
  double seed = 0.0;  ///< Newton start current
};

/// Runtime self-test: the batched Newton solve vs. the scalar solver on
/// a probe set, compared bit for bit and iteration for iteration.
/// Memoised after the first call; cheap (~30 solves).
bool simd_kernel_self_test();

/// Solves every lane; out[k] / iters[k] receive lane k's converged current
/// and iteration count, bit-identical to
/// lanes[k].cell->current_from_photo_counted(v, il, seed). Throws
/// pns::ContractViolation when simd_kernel_self_test() fails.
void newton_current_batch(std::span<const NewtonLane> lanes, double* out,
                          std::uint32_t* iters);

/// Derivative evaluator for a batch of bound circuits.
///
/// bind() inspects each lane's circuit: lanes whose source is a PvSource
/// have their stage evaluations decomposed via PvSource::plan_current
/// into memo hits, table lookups and Newton solves; the Newton solves run
/// through newton_current_batch above and the cache update is re-applied
/// through PvSource::commit_newton. Everything else falls back to the
/// circuit's scalar derivative() per lane. Either way eval() is
/// bit-identical to calling derivative() lane by lane in lane order,
/// because plan/execute/commit *is* PvSource::current (one copy of the
/// logic, see sources.cpp), and the PvSource counts every solve in its
/// own solve_stats().
class BatchRhs {
 public:
  /// Binds lane i to circuits[i] (borrowed; may be nullptr for lanes the
  /// stepper will never evaluate). Resolves the PvSource fast path.
  void bind(std::span<const EhCircuit* const> circuits);

  /// Evaluates dy/dt for an active-lane set: entry k uses the binding of
  /// lane lane_ids[k] at time t[k], state y[k], writing f[k]. Lane ids
  /// must be distinct (each bound circuit owns per-source caches).
  void eval(std::span<const std::size_t> lane_ids, const double* t,
            const double* y, double* f);

 private:
  struct Binding {
    const EhCircuit* circuit = nullptr;
    const PvSource* pv = nullptr;  ///< non-null iff the source is PV
    /// Exact-mode PV (no interpolation table): solves are Newton-biased,
    /// which is what the batched path actually accelerates.
    bool newton_biased = false;
  };
  std::vector<Binding> lanes_;

  // eval() scratch, reused across calls.
  std::vector<NewtonLane> newton_;
  std::vector<PvSource::SolvePlan> newton_plans_;
  std::vector<std::size_t> newton_slot_;  ///< entry index k per solve
  std::vector<double> newton_i_;
  std::vector<std::uint32_t> newton_iters_;
  std::vector<double> isrc_;  ///< per-entry source current
};

}  // namespace pns::ehsim
