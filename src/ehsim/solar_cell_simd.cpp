// Packed PV Newton kernel. Bit-identity with the scalar solver is the
// contract here, so every expression below replicates its scalar
// counterpart's association order exactly (see solar_cell.cpp); this TU
// and that TU both pin -ffp-contract=off (CMakeLists.txt) so neither side
// can be FMA-contracted into disagreement.
#include "ehsim/solar_cell_simd.hpp"

#include <atomic>
#include <bit>
#include <cmath>

#include "util/contracts.hpp"
#include "util/simd.hpp"

namespace pns::ehsim {
namespace {

std::atomic<bool> g_force_scalar{false};

constexpr int kW = simd::kDefaultWidth;

bool run_self_test() {
  // A plausible small array; the exact values only need to drive the
  // solver through its branches (damping, convergence, out-of-range V).
  const SolarCell cell(SolarCellParams{2e-9, 1.6, 0.3, 200.0, 1.15, 1000.0});

  // Newton probes across the IV curve, cold and warm seeds, with a count
  // that is not a multiple of the chunk width so the scalar tail-drain
  // path runs too.
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
  simd_detail::newton_packed(nl, got.data(), got_iters.data());
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

bool simd_kernel_compiled() { return simd::kNativeVectors; }

bool simd_kernel_self_test() {
  static const bool ok = run_self_test();
  return ok;
}

void simd_force_scalar(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

bool simd_kernel_active() {
  return simd_kernel_compiled() &&
         !g_force_scalar.load(std::memory_order_relaxed) &&
         simd_kernel_self_test();
}

namespace simd_detail {

namespace {

// On x86-64 the generic vector code is also cloned for AVX2 and dispatched
// by CPU at load time (GCC/Clang target_clones -> ifunc). Bit-identity is
// unaffected: the clones run the same elementwise IEEE-754 operations, this
// TU pins -ffp-contract=off so the FMA units the avx2 clone unlocks are
// never allowed to fuse, and the startup self-test validates whichever
// clone the dispatcher picked on the actual silicon.
#if PNS_SIMD_NATIVE && defined(__x86_64__) && defined(__GNUC__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define PNS_SIMD_CLONES __attribute__((target_clones("default", "avx2")))
#else
#define PNS_SIMD_CLONES
#endif

/// One width-W Newton chunk: lanes[0..W) solved in lockstep, each lane
/// executing exactly the scalar newton_current iteration sequence. Forced
/// inline into the (cloned) width wrappers below so the generic vector ops
/// lower with whatever ISA the selected clone enables.
template <int W>
[[gnu::always_inline]] inline void newton_chunk_impl(const NewtonLane* lanes,
                                                     double* out,
                                                     std::uint32_t* iters) {
  using Vec = simd::VecD<W>;
  using VMask = typename Vec::Mask;
  constexpr int kW = W;
  const Vec zero = Vec::broadcast(0.0);
  const Vec one = Vec::broadcast(1.0);
  const Vec ten = Vec::broadcast(10.0);
  const Vec eps = Vec::broadcast(1e-12);

  double i0a[kW], vta[kW], rsa[kW], rpa[kW], va[kW], ila[kW], ia[kW];
  for (int l = 0; l < kW; ++l) {
    const NewtonLane& ln = lanes[l];
    const SolarCellParams& p = ln.cell->params();
    i0a[l] = p.i0;
    vta[l] = p.vt_eff;
    rsa[l] = p.rs;
    rpa[l] = p.rp;
    va[l] = ln.v;
    ila[l] = ln.il;
    ia[l] = ln.seed;
  }
  const Vec i0 = Vec::load(i0a), vt = Vec::load(vta), rs = Vec::load(rsa),
            rp = Vec::load(rpa), v = Vec::load(va), il = Vec::load(ila);
  Vec i = Vec::load(ia);
  // Loop invariants of the scalar Residual::eval derivative
  //   df = -i0 * rs / vt_eff * e - rs / rp - 1.0
  // hoisted with the same association order ((((-i0)*rs)/vt)*e ...), so
  // each iteration's df is bit-identical to the scalar one.
  const Vec c1 = ((-i0) * rs) / vt;
  const Vec c2 = rs / rp;

  VMask active = cmp_lt(zero, one);  // all lanes
  Vec result = i;
  Vec itv = Vec::broadcast(100.0);  // best-effort default, as scalar

  bool all_done = false;
  for (int iter = 0; iter < 100 && !all_done; ++iter) {
    const Vec vd = v + rs * i;
    const Vec x = vd / vt;
    // std::exp stays scalar: there is no vector exp with bit-identical
    // results, and it is the one transcendental in the loop. Converged
    // lanes skip it -- exactly the calls the scalar solver would not
    // have made.
    double ea[kW];
    for (int l = 0; l < kW; ++l)
      ea[l] = active.test(l) ? std::exp(x[l]) : 1.0;
    const Vec e = Vec::load(ea);
    const Vec f = il - i0 * (e - one) - vd / rp - i;
    const Vec df = c1 * e - c2 - one;
    Vec step = f / df;
    const Vec limit = vmax(one, vabs(i)) * ten + one;
    const VMask big = cmp_gt(vabs(step), limit);
    step = select(big, select(cmp_gt(step, zero), limit, -limit), step);
    const Vec next = i - step;
    const VMask conv = cmp_lt(vabs(next - i), eps * (one + vabs(next)));
    const VMask newly = conv & active;
    result = select(newly, next, result);
    itv = select(newly, Vec::broadcast(static_cast<double>(iter + 1)), itv);
    active = active & ~conv;
    all_done = !active.any();
    i = next;
  }
  // Lanes that never converged return the last iterate, matching the
  // scalar solver's best-effort return (iters stays 100).
  result = select(active, i, result);

  for (int l = 0; l < kW; ++l) {
    out[l] = result[l];
    iters[l] = static_cast<std::uint32_t>(itv[l]);
  }
}

// GCC cannot multiversion templates, so each chunk width gets a plain
// wrapper carrying the clone attribute; the always_inline impl then
// compiles per clone.
PNS_SIMD_CLONES
void newton_chunk4(const NewtonLane* l, double* o, std::uint32_t* it) {
  newton_chunk_impl<4>(l, o, it);
}
PNS_SIMD_CLONES
void newton_chunk2(const NewtonLane* l, double* o, std::uint32_t* it) {
  newton_chunk_impl<2>(l, o, it);
}

}  // namespace

std::size_t newton_packed(std::span<const NewtonLane> lanes, double* out,
                          std::uint32_t* iters) {
  // Full chunks go through the vector kernel, a 2- or 3-lane remainder
  // through one half-width chunk, and a final odd lane through the scalar
  // solver -- which is the same iteration sequence (that is the kernel's
  // whole contract), and cheaper than a padded vector pass that mostly
  // computes masked lanes.
  static_assert(kW == 4, "chunk schedule assumes a width-4 default");
  std::size_t base = 0;
  for (; base + kW <= lanes.size(); base += kW)
    newton_chunk4(lanes.data() + base, out + base, iters + base);
  if (base + 2 <= lanes.size()) {
    newton_chunk2(lanes.data() + base, out + base, iters + base);
    base += 2;
  }
  const std::size_t packed = base;
  for (std::size_t k = packed; k < lanes.size(); ++k)
    out[k] = lanes[k].cell->current_from_photo_counted(
        lanes[k].v, lanes[k].il, lanes[k].seed, &iters[k]);
  return packed;
}

}  // namespace simd_detail

std::size_t newton_current_batch(std::span<const NewtonLane> lanes,
                                 double* out, std::uint32_t* iters) {
  if (!lanes.empty() && simd_kernel_active())
    return simd_detail::newton_packed(lanes, out, iters);
  for (std::size_t k = 0; k < lanes.size(); ++k)
    out[k] = lanes[k].cell->current_from_photo_counted(
        lanes[k].v, lanes[k].il, lanes[k].seed, &iters[k]);
  return 0;
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

  // The packed path pays classify/queue bookkeeping per lane and wins it
  // back on Newton solves (an exp-bound iteration per lane); table
  // lookups are too cheap to recover it. Enter it only when the call
  // has at least two lanes whose solves are Newton-biased (exact-mode PV,
  // no table); otherwise answer every lane through its circuit's scalar
  // derivatives() -- same bits either way.
  std::size_t newton_lanes = 0;
  for (std::size_t k = 0; k < n; ++k)
    if (lanes_[lane_ids[k]].newton_biased) ++newton_lanes;
  if (newton_lanes < 2) {
    for (std::size_t k = 0; k < n; ++k) {
      const Binding& b = lanes_[lane_ids[k]];
      PNS_EXPECTS(b.circuit != nullptr);
      b.circuit->derivatives(t[k], std::span<const double>(&y[k], 1),
                             std::span<double>(&f[k], 1));
    }
    return;
  }

  newton_.clear();
  newton_plans_.clear();
  newton_slot_.clear();
  isrc_.assign(n, 0.0);

  // Classify each lane's evaluation. Non-PV lanes, memo hits and table
  // lookups are answered on the spot, exactly as PvSource::current
  // answers them; Newton solves queue for the packed kernel.
  for (std::size_t k = 0; k < n; ++k) {
    const Binding& b = lanes_[lane_ids[k]];
    PNS_EXPECTS(b.circuit != nullptr);
    if (b.pv == nullptr) {
      b.circuit->derivatives(t[k], std::span<const double>(&y[k], 1),
                             std::span<double>(&f[k], 1));
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
    const std::size_t packed =
        newton_current_batch(newton_, newton_i_.data(), newton_iters_.data());
    for (std::size_t j = 0; j < newton_.size(); ++j) {
      const std::size_t k = newton_slot_[j];
      const Binding& b = lanes_[lane_ids[k]];
      b.pv->commit_newton(newton_plans_[j], newton_i_[j], newton_iters_[j],
                          j < packed);
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
