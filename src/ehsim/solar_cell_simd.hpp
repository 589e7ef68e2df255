// Packed (SIMD) kernel for the PV co-simulation hot path.
//
// The batched lockstep engine (sim/batch_engine + ehsim/rk23_batch) steps
// many independent scenarios in lockstep; at every RK stage each lane asks
// its circuit for dVC/dt, and for exact-mode solar scenarios that means a
// damped Newton solve of the implicit diode equation
// (ehsim/solar_cell.cpp). This header packs those per-lane solves into
// width-kDefaultWidth vector chunks:
//
//   * newton_current_batch -- masked lockstep Newton: every lane executes
//     exactly the scalar iteration sequence (same expressions, same
//     association order, scalar std::exp per lane), lanes freeze as they
//     converge, and the chunk retires when all lanes have.
//   * BatchRhs -- binds a batch of EhCircuits and evaluates a whole
//     active-lane set's derivatives with the Newton solves packed.
//
// Table lookups are not packed: a bilinear lookup is too cheap to repay
// the packing bookkeeping, so BatchRhs answers one inline, exactly as
// PvSource::current does. A sweep unit holds a single PV mode
// (sweep::batch_compatible), so a tabulated unit never packs at all.
//
// Bit-identity contract: the kernel produces *bit-identical* results to
// the scalar solver, on every input. That is possible because the scalar
// code is straight-line IEEE-754 double arithmetic plus std::exp (which
// the kernel keeps scalar, one call per active lane per iteration). A
// cheap startup self-test (simd_kernel_self_test) re-proves the claim on
// the running platform; if it fails -- e.g. an exotic target where the
// compiler contracts vector expressions differently despite
// -ffp-contract=off -- this TU degrades to per-lane scalar execution and
// the batched engine stays correct, merely unaccelerated.
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

/// True when this build compiled the kernels over compiler vector
/// extensions (PNS_SIMD=auto on GCC/Clang); false in the PNS_SIMD=off leg.
bool simd_kernel_compiled();

/// Runtime self-test: the packed Newton kernel vs. scalar on a probe set,
/// compared bit for bit. Memoised after the first call; cheap (~30
/// solves).
bool simd_kernel_self_test();

/// Test/diagnostic override: force the per-lane scalar path even where the
/// packed kernel is available and proven. Global, not thread-local --
/// intended for test setup, not for toggling mid-run.
void simd_force_scalar(bool force);

/// True when the packed kernel will actually be used: compiled in, not
/// forced off, and the self-test passed on this platform.
bool simd_kernel_active();

/// Solves every lane; out[k] / iters[k] receive lane k's converged current
/// and iteration count. Returns the number of leading lanes executed inside
/// full-width vector chunks (0 when the kernel degraded to scalar; the
/// remainder past a partial chunk always drains scalar). Results are
/// bit-identical either way.
std::size_t newton_current_batch(std::span<const NewtonLane> lanes,
                                 double* out, std::uint32_t* iters);

namespace simd_detail {
/// The packed implementation, callable directly (bypassing the
/// active/forced gates) so tests can pit it against scalar on both the
/// native and the fallback VecD backends. Same return as
/// newton_current_batch: the count of lanes that went through vector
/// chunks.
std::size_t newton_packed(std::span<const NewtonLane> lanes, double* out,
                          std::uint32_t* iters);
}  // namespace simd_detail

/// Derivative evaluator for a batch of bound circuits.
///
/// bind() inspects each lane's circuit: lanes whose source is a PvSource
/// have their stage evaluations decomposed via PvSource::plan_current
/// into memo hits, table lookups and Newton solves; the Newton solves run
/// through the packed kernel above and the cache update is re-applied
/// through PvSource::commit_newton. Everything else falls back to the
/// circuit's scalar derivatives() per lane. Either way eval() is
/// bit-identical to calling derivatives() lane by lane in lane order,
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
    /// which is what the packed path actually accelerates.
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
