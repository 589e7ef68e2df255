// Batched PV Newton solve. Bit-identity with the scalar solver is the
// contract here: both iterate the one inline newton_next()
// (solar_cell.hpp), and this TU and solar_cell.cpp both pin
// -ffp-contract=off (CMakeLists.txt) so neither copy of it can be
// FMA-contracted into disagreement.
#include "ehsim/solar_cell_simd.hpp"

#include <algorithm>
#include <bit>

#include "util/contracts.hpp"

namespace pns::ehsim {
namespace {

/// Lanes interleaved per chunk.
constexpr std::size_t kChunk = 4;

/// Solves lanes[0..n), n <= kChunk, interleaved: each round advances every
/// unconverged lane by one newton_next(), so lane k sees exactly the
/// iterates of SolarCell::newton_current from its seed.
void newton_chunk(const NewtonLane* lanes, std::size_t n, double* out,
                  std::uint32_t* iters) {
  double i[kChunk];
  bool open[kChunk];
  for (std::size_t k = 0; k < n; ++k) {
    i[k] = lanes[k].seed;
    open[k] = true;
  }
  std::size_t left = n;
  for (int iter = 0; iter < kNewtonMaxIters && left > 0; ++iter) {
    for (std::size_t k = 0; k < n; ++k) {
      if (!open[k]) continue;
      const NewtonLane& ln = lanes[k];
      const double next = newton_next(ln.cell->params(), ln.v, ln.il, i[k]);
      if (newton_converged(i[k], next)) {
        out[k] = next;
        iters[k] = static_cast<std::uint32_t>(iter + 1);
        open[k] = false;
        --left;
      } else {
        i[k] = next;
      }
    }
  }
  // Lanes that never converged return the last iterate, matching the
  // scalar solver's best-effort return.
  for (std::size_t k = 0; k < n; ++k) {
    if (!open[k]) continue;
    out[k] = i[k];
    iters[k] = kNewtonMaxIters;
  }
}

void solve_interleaved(std::span<const NewtonLane> lanes, double* out,
                       std::uint32_t* iters) {
  for (std::size_t base = 0; base < lanes.size(); base += kChunk)
    newton_chunk(lanes.data() + base,
                 std::min(kChunk, lanes.size() - base), out + base,
                 iters + base);
}

bool run_self_test() {
  // A plausible small array; the exact values only need to drive the
  // solver through its branches (damping, convergence, out-of-range V).
  const SolarCell cell(SolarCellParams{2e-9, 1.6, 0.3, 200.0, 1.15, 1000.0});

  // Newton probes across the IV curve, cold and warm seeds, with a count
  // that is not a multiple of the chunk width so a partial chunk runs too.
  std::vector<NewtonLane> nl;
  for (double v : {0.0, 1.3, 4.2, 5.3, 6.4, 7.1})
    for (double il : {0.0, 0.2, 0.7, 1.15}) nl.push_back({&cell, v, il, il});
  for (std::size_t k = 0; k < 3; ++k) {
    NewtonLane ln = nl[4 * k + 1];
    ln.seed = cell.current_from_photo(ln.v, ln.il) + 0.01;
    nl.push_back(ln);
  }
  std::vector<double> got(nl.size());
  std::vector<std::uint32_t> got_iters(nl.size());
  solve_interleaved(nl, got.data(), got_iters.data());
  for (std::size_t k = 0; k < nl.size(); ++k) {
    std::uint32_t want_iters = 0;
    const double want = nl[k].cell->current_from_photo_counted(
        nl[k].v, nl[k].il, nl[k].seed, &want_iters);
    if (std::bit_cast<std::uint64_t>(want) !=
        std::bit_cast<std::uint64_t>(got[k]))
      return false;
    if (want_iters != got_iters[k]) return false;
  }
  return true;
}

}  // namespace

bool simd_kernel_self_test() {
  static const bool ok = run_self_test();
  return ok;
}

void newton_current_batch(std::span<const NewtonLane> lanes, double* out,
                          std::uint32_t* iters) {
  PNS_ENSURES(simd_kernel_self_test());
  solve_interleaved(lanes, out, iters);
}

void BatchRhs::bind(std::span<const EhCircuit* const> circuits) {
  lanes_.clear();
  lanes_.reserve(circuits.size());
  for (const EhCircuit* c : circuits) {
    Binding b;
    b.circuit = c;
    if (c != nullptr) b.pv = dynamic_cast<const PvSource*>(&c->source());
    b.newton_biased = b.pv != nullptr && b.pv->table() == nullptr;
    lanes_.push_back(b);
  }
}

void BatchRhs::eval(std::span<const std::size_t> lane_ids, const double* t,
                    const double* y, double* f) {
  const std::size_t n = lane_ids.size();

  // The batched path pays classify/queue bookkeeping per lane and wins it
  // back on Newton solves (an exp-bound iteration per lane); table
  // lookups are too cheap to recover it. Enter it only when the call
  // has at least two lanes whose solves are Newton-biased (exact-mode PV,
  // no table); otherwise answer every lane through its circuit's scalar
  // derivative() -- same bits either way.
  std::size_t newton_lanes = 0;
  for (std::size_t k = 0; k < n; ++k)
    if (lanes_[lane_ids[k]].newton_biased) ++newton_lanes;
  if (newton_lanes < 2) {
    for (std::size_t k = 0; k < n; ++k) {
      const Binding& b = lanes_[lane_ids[k]];
      PNS_EXPECTS(b.circuit != nullptr);
      f[k] = b.circuit->derivative(t[k], y[k]);
    }
    return;
  }

  newton_.clear();
  newton_plans_.clear();
  newton_slot_.clear();
  isrc_.assign(n, 0.0);

  // Classify each lane's evaluation. Non-PV lanes, memo hits and table
  // lookups are answered on the spot, exactly as PvSource::current
  // answers them; Newton solves queue for newton_current_batch.
  for (std::size_t k = 0; k < n; ++k) {
    const Binding& b = lanes_[lane_ids[k]];
    PNS_EXPECTS(b.circuit != nullptr);
    if (b.pv == nullptr) {
      f[k] = b.circuit->derivative(t[k], y[k]);
      continue;
    }
    const PvSource::SolvePlan plan = b.pv->plan_current(y[k], t[k]);
    switch (plan.path) {
      case PvSource::SolvePlan::Path::kMemo:
        isrc_[k] = plan.value;
        break;
      case PvSource::SolvePlan::Path::kTable:
        isrc_[k] = b.pv->table()->current(plan.v, plan.g);
        break;
      case PvSource::SolvePlan::Path::kNewton:
        newton_.push_back({&b.pv->cell(), plan.v, plan.il, plan.seed});
        newton_plans_.push_back(plan);
        newton_slot_.push_back(k);
        break;
    }
  }

  if (!newton_.empty()) {
    newton_i_.resize(newton_.size());
    newton_iters_.resize(newton_.size());
    newton_current_batch(newton_, newton_i_.data(), newton_iters_.data());
    for (std::size_t j = 0; j < newton_.size(); ++j) {
      const std::size_t k = newton_slot_[j];
      const Binding& b = lanes_[lane_ids[k]];
      b.pv->commit_newton(newton_plans_[j], newton_i_[j], newton_iters_[j],
                          /*batched=*/true);
      isrc_[k] = newton_i_[j];
    }
  }

  for (std::size_t k = 0; k < n; ++k) {
    const Binding& b = lanes_[lane_ids[k]];
    if (b.pv != nullptr)
      f[k] = b.circuit->derivative_with_source(t[k], y[k], isrc_[k]);
  }
}

}  // namespace pns::ehsim
