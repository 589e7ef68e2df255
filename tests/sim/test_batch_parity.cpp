// Differential-testing harness for the batched lockstep engine.
//
// The contract under test (sim/batch_engine.hpp): running scenarios
// through rk23simd is an execution strategy, not a numeric one -- for
// any batch width and any lane order, every scenario's metrics are
// *identical* (to the last bit, asserted via the shortest_double
// round-trip serialisation) to running it alone under rk23pi. The batched
// path has the machinery that could break it: RK stages staged across
// lanes, packed masked Newton, table lookups answered inline inside a
// packed evaluation (mixed-mode batches), one-lane rounds stepped scalar,
// and a scalar kernel fallback that must agree with all of the above.
// The grids come from tests/support/scenario_grid.hpp: seeded, diverse
// (controls, weather, windows, capacitances, brownout-provoking start
// voltages) and deterministic, so a failure reproduces from its seed.
#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../support/scenario_grid.hpp"
#include "ehsim/solar_cell_simd.hpp"
#include "sweep/assets.hpp"
#include "sweep/scenario.hpp"

namespace pns::sweep {
namespace {

using testsupport::GridOptions;
using testsupport::canonical_metrics;
using testsupport::make_scenario_grid;

/// Scalar reference: each spec alone under rk23pi (the engine rk23simd
/// must reproduce bit for bit).
std::vector<std::string> scalar_reference(std::vector<ScenarioSpec> specs) {
  std::vector<std::string> ref;
  ref.reserve(specs.size());
  ScenarioAssets assets;
  for (auto& spec : specs) {
    spec.integrator = IntegratorSpec::parse("rk23pi");
    ref.push_back(
        canonical_metrics(spec, run_scenario(spec, assets)));
  }
  return ref;
}

/// Runs `specs` through run_scenarios_batched in groups of `width`,
/// under rk23simd:width=<width>, and returns canonical metrics per spec.
std::vector<std::string> batched_run(std::vector<ScenarioSpec> specs,
                                     std::size_t width) {
  for (auto& spec : specs)
    spec.integrator =
        IntegratorSpec::parse("rk23simd:width=" + std::to_string(width));
  std::vector<std::string> got(specs.size());
  ScenarioAssets assets;
  for (std::size_t begin = 0; begin < specs.size(); begin += width) {
    const std::size_t n = std::min(width, specs.size() - begin);
    const auto outcomes =
        run_scenarios_batched(specs.data() + begin, n, assets);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_TRUE(outcomes[k].ok) << outcomes[k].error;
      got[begin + k] = canonical_metrics(outcomes[k]);
    }
  }
  return got;
}

TEST(BatchParity, EveryWidthAndLaneOrderMatchesScalarRk23PiExactly) {
  GridOptions opt;
  opt.count = 10;
  const auto specs = make_scenario_grid(0xB41C5EEDull, opt);
  const auto ref = scalar_reference(specs);
  // Reversed, spec i rides in the mirrored lane (and, below full width,
  // with different batchmates). Results must still match spec for spec.
  const std::vector<ScenarioSpec> reversed(specs.rbegin(), specs.rend());
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{4},
                                  std::size_t{8}}) {
    const auto got = batched_run(specs, width);
    auto got_reversed = batched_run(reversed, width);
    std::reverse(got_reversed.begin(), got_reversed.end());
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i], ref[i])
          << "width=" << width << " diverged on " << specs[i].label;
      EXPECT_EQ(got_reversed[i], ref[i])
          << "width=" << width << " lane permutation changed "
          << specs[i].label;
    }
  }
}

TEST(BatchParity, MixedControlFamiliesShareABatchSafely) {
  // The runner only groups compatible rows, but run_scenarios_batched
  // itself must not care: a batch deliberately mixing the controller,
  // governors and the static baseline still reproduces each lane.
  GridOptions opt;
  opt.count = 8;
  const auto specs = make_scenario_grid(0x5EEDF00Dull, opt);
  bool mixed = false;
  for (const auto& s : specs)
    mixed = mixed || s.control.kind != specs[0].control.kind;
  ASSERT_TRUE(mixed) << "grid seed no longer yields mixed controls";
  const auto ref = scalar_reference(specs);
  const auto got = batched_run(specs, specs.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(got[i], ref[i]) << specs[i].label;
}

TEST(BatchParity, BadLaneFailsAloneAndNeverPoisonsBatchmates) {
  GridOptions opt;
  opt.count = 4;
  auto specs = make_scenario_grid(0xBADBADull, opt);
  const auto ref = scalar_reference(specs);
  for (auto& spec : specs)
    spec.integrator = IntegratorSpec::parse("rk23simd");
  specs[1].source.kind = "no-such-source";
  ScenarioAssets assets;
  const auto outcomes =
      run_scenarios_batched(specs.data(), specs.size(), assets);
  ASSERT_EQ(outcomes.size(), specs.size());
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_NE(outcomes[1].error.find("no-such-source"), std::string::npos)
      << outcomes[1].error;
  for (const std::size_t i : {std::size_t{0}, std::size_t{2},
                              std::size_t{3}}) {
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
    EXPECT_EQ(canonical_metrics(outcomes[i]), ref[i]) << specs[i].label;
  }
}

TEST(BatchParity, NewtonStressGridsMatchAtEveryWidth) {
  // Dawn/dusk irradiance ramps, near-brownout stiff spans, and lanes
  // mixing tabulated and exact PV: the inputs most likely to expose a
  // packed kernel that is almost-but-not-quite the scalar sequence.
  GridOptions opt;
  opt.count = 9;
  const auto specs = testsupport::make_newton_stress_grid(0x57E55EEDull, opt);
  bool tabulated = false, exact = false;
  for (const auto& s : specs) {
    tabulated = tabulated || s.pv_mode == ehsim::PvSource::Mode::kTabulated;
    exact = exact || s.pv_mode == ehsim::PvSource::Mode::kExact;
  }
  ASSERT_TRUE(tabulated && exact)
      << "stress seed no longer yields mixed PV modes";
  const auto ref = scalar_reference(specs);
  for (const std::size_t width : {std::size_t{2}, std::size_t{4},
                                  std::size_t{8}}) {
    const auto got = batched_run(specs, width);
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(got[i], ref[i])
          << "width=" << width << " diverged on " << specs[i].label;
  }
}

TEST(BatchParity, ForcedScalarKernelFallbackMatchesToo) {
  // Platforms whose packed kernels fail the startup self-test degrade to
  // per-lane scalar execution; force that path and hold it to the same
  // contract. (Restore the override even if an assertion throws.)
  struct ForceScalar {
    ForceScalar() { ehsim::simd_force_scalar(true); }
    ~ForceScalar() { ehsim::simd_force_scalar(false); }
  } guard;
  ASSERT_FALSE(ehsim::simd_kernel_active());
  GridOptions opt;
  opt.count = 6;
  const auto specs = testsupport::make_newton_stress_grid(0xFA11BAC2ull, opt);
  const auto ref = scalar_reference(specs);
  const auto got = batched_run(specs, 4);
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(got[i], ref[i]) << "forced-scalar " << specs[i].label;
}

TEST(BatchParity, BatchedStaysWithinToleranceOfRk23Reference) {
  // rk23 (the bit-exact published reference) uses different numerics, so
  // agreement here is tolerance-level, not bitwise: the batched engine
  // must land on the same physics. Restrict to warm daytime grids (vc0
  // at the MPP, harvest present); brownout timing near the cutoff or at
  // night is legitimately numerics-sensitive.
  GridOptions opt;
  opt.count = 20;
  opt.min_window_s = 60.0;
  auto specs = make_scenario_grid(0x70E1E4A4ull, opt);
  specs.erase(std::remove_if(specs.begin(), specs.end(),
                             [](const ScenarioSpec& s) {
                               return s.vc0 != 5.3 ||
                                      s.t_start < 9.0 * 3600.0;
                             }),
              specs.end());
  ASSERT_GE(specs.size(), 6u);

  ScenarioAssets assets;
  for (auto& spec : specs) {
    spec.integrator = IntegratorSpec{};  // rk23, the published reference
    const SummaryRow exact = summarize(
        SweepOutcome{spec, run_scenario(spec, assets), true, "", 0.0});
    spec.integrator = IntegratorSpec::parse("rk23simd:width=4");
    const auto outcomes = run_scenarios_batched(&spec, 1, assets);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    const SummaryRow batched = summarize(outcomes[0]);

    EXPECT_NEAR(batched.vc_mean, exact.vc_mean, 0.02) << spec.label;
    EXPECT_NEAR(batched.energy_harvested_j, exact.energy_harvested_j,
                0.01 * std::max(1.0, exact.energy_harvested_j))
        << spec.label;
    EXPECT_NEAR(batched.lifetime_s, exact.lifetime_s,
                0.05 * exact.duration_s)
        << spec.label;
  }
}

}  // namespace
}  // namespace pns::sweep
