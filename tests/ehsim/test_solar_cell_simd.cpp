// The batched PV Newton solve vs. the scalar solver, bit for bit.
//
// The differential batch-parity suite (tests/sim/test_batch_parity)
// proves the end-to-end contract; these tests aim the microscope at the
// solve itself: newton_current_batch against
// SolarCell::current_from_photo_counted on adversarial and seeded-random
// operating points, the self-test, and the plan/execute/commit
// decomposition of PvSource::current that the batched evaluator relies
// on.
#include "ehsim/solar_cell_simd.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "ehsim/pv_table.hpp"
#include "ehsim/solar_cell.hpp"
#include "ehsim/sources.hpp"
#include "util/rng.hpp"

namespace pns::ehsim {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

SolarCell test_cell() {
  return SolarCell(SolarCellParams{2e-9, 1.6, 0.3, 200.0, 1.15, 1000.0});
}

/// Newton probe lanes spanning cold seeds, warm seeds, the damped-step
/// branch and near-zero photo-currents (the dawn/dusk regime).
std::vector<NewtonLane> newton_probes(const SolarCell& cell) {
  std::vector<NewtonLane> lanes;
  for (double v : {0.0, 0.8, 2.3, 4.2, 5.3, 6.1, 7.0})
    for (double il : {0.0, 1e-6, 0.02, 0.4, 1.15})
      lanes.push_back({&cell, v, il, il});
  // Warm seeds: start from a converged neighbour's current, as the
  // PvSource cache does.
  for (std::size_t k = 0; k < 5; ++k) {
    NewtonLane ln = lanes[7 * k + 3];
    ln.seed = cell.current_from_photo(ln.v, ln.il) + 0.003;
    lanes.push_back(ln);
  }
  return lanes;
}

TEST(SolarCellSimd, NewtonPackedIsBitIdenticalToScalar) {
  const SolarCell cell = test_cell();
  const auto lanes = newton_probes(cell);
  std::vector<double> got(lanes.size());
  std::vector<std::uint32_t> got_iters(lanes.size());
  newton_current_batch(lanes, got.data(), got_iters.data());
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    std::uint32_t want_iters = 0;
    const double want = cell.current_from_photo_counted(
        lanes[k].v, lanes[k].il, lanes[k].seed, &want_iters);
    EXPECT_EQ(bits(got[k]), bits(want))
        << "lane " << k << " v=" << lanes[k].v << " il=" << lanes[k].il;
    EXPECT_EQ(got_iters[k], want_iters) << "lane " << k;
  }
}

TEST(SolarCellSimd, NewtonPackedHandlesEveryRemainder) {
  // 1..9 lanes cover a lone lane, partial chunks, one full chunk, and
  // full chunks followed by every partial remainder.
  const SolarCell cell = test_cell();
  const auto all = newton_probes(cell);
  for (std::size_t n = 1; n <= 9; ++n) {
    std::vector<NewtonLane> lanes(all.begin(), all.begin() + n);
    std::vector<double> got(n);
    std::vector<std::uint32_t> iters(n);
    newton_current_batch(lanes, got.data(), iters.data());
    for (std::size_t k = 0; k < n; ++k) {
      const double want = cell.current_from_photo(lanes[k].v, lanes[k].il);
      EXPECT_EQ(bits(got[k]), bits(want)) << "n=" << n << " lane " << k;
    }
  }
}

TEST(SolarCellSimd, BatchMatchesScalarOnSeededFuzz) {
  // Random cells well beyond the calibrated array -- i0 over nine
  // decades, sharp to soft knees, ideal to lossy parasitics -- mixed in
  // one call, at voltages from below 0 to past Voc, dark and lit, with
  // cold, warm and far-off seeds (the last drive the damped branch).
  pns::Rng rng(0x5EEDF022ull);
  struct Cell {
    SolarCell cell;
    double voc;
  };
  std::vector<Cell> cells;
  for (int c = 0; c < 12; ++c) {
    const SolarCell cell(SolarCellParams{
        std::pow(10.0, rng.uniform(-15.0, -6.0)),  // i0
        rng.uniform(0.05, 2.5),                    // vt_eff
        rng.uniform(0.0, 2.0),                     // rs
        std::pow(10.0, rng.uniform(0.5, 4.0)),     // rp
        rng.uniform(0.0, 3.0),                     // il_ref
        1000.0});
    cells.push_back({cell, cell.open_circuit_voltage(1000.0)});
  }
  for (int round = 0; round < 360; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round % 9);
    std::vector<NewtonLane> lanes;
    for (std::size_t k = 0; k < n; ++k) {
      const Cell& c = cells[rng.uniform_index(cells.size())];
      NewtonLane ln{&c.cell, rng.uniform(-0.5 * c.voc - 1.0, 1.5 * c.voc + 1.0),
                    rng.bernoulli(0.2)
                        ? 0.0
                        : rng.uniform(0.0, 1.2 * c.cell.params().il_ref),
                    0.0};
      switch (rng.uniform_index(3)) {
        case 0:  // cold: the photo-current, as current_from_photo
          ln.seed = ln.il;
          break;
        case 1:  // warm: near the root, as the PvSource memo seeds
          ln.seed = c.cell.current_from_photo(ln.v, ln.il) +
                    rng.normal(0.0, 1e-3);
          break;
        default:  // far off
          ln.seed = rng.uniform(-10.0, 10.0);
          break;
      }
      lanes.push_back(ln);
    }
    std::vector<double> got(n);
    std::vector<std::uint32_t> got_iters(n);
    newton_current_batch(lanes, got.data(), got_iters.data());
    for (std::size_t k = 0; k < n; ++k) {
      std::uint32_t want_iters = 0;
      const double want = lanes[k].cell->current_from_photo_counted(
          lanes[k].v, lanes[k].il, lanes[k].seed, &want_iters);
      ASSERT_EQ(bits(got[k]), bits(want))
          << "round " << round << " lane " << k << " v=" << lanes[k].v
          << " il=" << lanes[k].il << " seed=" << lanes[k].seed;
      ASSERT_EQ(got_iters[k], want_iters)
          << "round " << round << " lane " << k;
    }
  }
}

TEST(SolarCellSimd, SelfTestPassesHere) {
  // If this fails, the batched solve disagrees with the scalar solver on
  // this platform and newton_current_batch refuses to run.
  EXPECT_TRUE(simd_kernel_self_test());
}

// ---------------------------------------------------------------- PvSource
// plan/execute/commit must BE PvSource::current: same value, same cache
// evolution, same counters. A drift here would let the batched path and
// the scalar path disagree on warm-start seeds a few calls later.

PvSource make_source(PvSource::Mode mode) {
  SolarCell cell = test_cell();
  auto irr = [](double t) { return t < 100.0 ? 800.0 : 30.0; };
  if (mode == PvSource::Mode::kExact) return PvSource(cell, irr);
  PvTableSpec spec;
  spec.v_max = 7.0;
  spec.g_max = 1200.0;
  spec.nv = 17;
  spec.ng = 9;
  return PvSource(cell, irr,
                  std::make_shared<const PvTable>(cell, spec));
}

TEST(SolarCellSimd, PlanExecuteCommitReplaysCurrentExactly) {
  for (const auto mode :
       {PvSource::Mode::kExact, PvSource::Mode::kTabulated}) {
    PvSource a = make_source(mode);
    PvSource b = make_source(mode);
    // A call sequence hitting memo (same v,t), cold solves (jumps), and
    // -- in tabulated mode -- the table path plus the off-table Newton
    // fallback (v beyond the table's 7 V edge) whose second call
    // warm-starts from the first.
    const double pts[][2] = {{5.3, 10.0}, {5.3, 10.0},  {5.31, 11.0},
                             {2.0, 12.0}, {2.01, 13.0}, {5.3, 200.0},
                             {5.3, 200.0}, {0.5, 201.0}, {7.5, 300.0},
                             {7.52, 301.0}};
    for (const auto& p : pts) {
      const double want = a.current(p[0], p[1]);
      // Replay on b through the decomposed path.
      const PvSource::SolvePlan plan = b.plan_current(p[0], p[1]);
      double got = 0.0;
      switch (plan.path) {
        case PvSource::SolvePlan::Path::kMemo:
          got = plan.value;
          break;
        case PvSource::SolvePlan::Path::kTable:
          got = b.table()->current(plan.v, plan.g);
          break;
        case PvSource::SolvePlan::Path::kNewton: {
          std::uint32_t iters = 0;
          got = b.cell().current_from_photo_counted(plan.v, plan.il,
                                                    plan.seed, &iters);
          b.commit_newton(plan, got, iters, false);
          break;
        }
      }
      EXPECT_EQ(bits(got), bits(want)) << "v=" << p[0] << " t=" << p[1];
    }
    // Identical cache evolution => identical counters.
    EXPECT_EQ(a.solve_stats().calls, b.solve_stats().calls);
    EXPECT_EQ(a.solve_stats().memo_hits, b.solve_stats().memo_hits);
    EXPECT_EQ(a.solve_stats().table_hits, b.solve_stats().table_hits);
    EXPECT_EQ(a.solve_stats().newton_solves, b.solve_stats().newton_solves);
    EXPECT_EQ(a.solve_stats().newton_iterations,
              b.solve_stats().newton_iterations);
    EXPECT_EQ(a.solve_stats().warm_starts, b.solve_stats().warm_starts);
    if (mode == PvSource::Mode::kExact) {
      // Exact mode has no table, hence no off-table warm-start rule.
      EXPECT_GT(a.solve_stats().newton_solves, 0u);
      EXPECT_GT(a.solve_stats().memo_hits, 0u);
      EXPECT_EQ(a.solve_stats().warm_starts, 0u);
    } else {
      EXPECT_GT(a.solve_stats().table_hits, 0u);
      EXPECT_GT(a.solve_stats().newton_solves, 0u);
      EXPECT_GT(a.solve_stats().warm_starts, 0u);
    }
  }
}

TEST(SolarCellSimd, SolveStatsAccumulate) {
  PvSolveStats a;
  a.calls = 3;
  a.newton_solves = 2;
  a.newton_iterations = 11;
  PvSolveStats b;
  b.calls = 5;
  b.memo_hits = 4;
  b.simd_lanes = 2;
  a += b;
  EXPECT_EQ(a.calls, 8u);
  EXPECT_EQ(a.memo_hits, 4u);
  EXPECT_EQ(a.newton_solves, 2u);
  EXPECT_EQ(a.newton_iterations, 11u);
  EXPECT_EQ(a.simd_lanes, 2u);
}

}  // namespace
}  // namespace pns::ehsim
