// Differential-testing harness for the batched lockstep engine.
//
// The contract under test (sim/batch_engine.hpp): running scenarios
// through rk23simd is an execution strategy, not a numeric one -- for
// any batch width and any lane order, every scenario's metrics are
// *identical* (to the last bit, asserted via the shortest_double
// round-trip serialisation) to running it alone under rk23pi. The batched
// path has the machinery that could break it: RK stages staged across
// lanes, interleaved batched Newton, table lookups answered inline inside
// a batched evaluation (mixed-mode batches), and one-lane rounds stepped
// scalar.
// The grids come from tests/support/scenario_grid.hpp: seeded, diverse
// (controls, weather, windows, capacitances, brownout-provoking start
// voltages) and deterministic, so a failure reproduces from its seed.
// The streamed form is also held to its delivery contract: every row
// reaches the sink exactly once, and a mid-run throw reruns only the
// rows not yet delivered.
#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../support/scenario_grid.hpp"
#include "governors/governor.hpp"
#include "sim/experiment.hpp"
#include "sweep/assets.hpp"
#include "sweep/registry.hpp"
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

  // Streamed, every row arrives exactly once: the bad row before any
  // lane runs, its batchmates as their lanes finish.
  std::vector<std::size_t> order;
  run_scenarios_batched(specs.data(), specs.size(), assets,
                        [&](std::size_t i, SweepOutcome&& out) {
                          order.push_back(i);
                          EXPECT_EQ(out.ok, i != 1) << out.error;
                        });
  ASSERT_EQ(order.size(), specs.size());
  EXPECT_EQ(order.front(), 1u);
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < specs.size(); ++i) EXPECT_EQ(order[i], i);
}

/// A governor that holds its operating point until `t_fail`, then throws:
/// a lane that fails in the middle of a lockstep run.
class FailingGovernor : public gov::Governor {
 public:
  FailingGovernor(const soc::Platform& platform, double t_fail)
      : Governor(platform), t_fail_(t_fail) {}
  const char* name() const override { return "test-fail"; }
  soc::OperatingPoint decide(const gov::GovernorContext& ctx) override {
    if (ctx.t >= t_fail_)
      throw std::runtime_error("test-fail: governor gave up mid-run");
    return ctx.current;
  }

 private:
  double t_fail_;
};

TEST(BatchParity, MidRunThrowRerunsOnlyTheRowsNotYetDelivered) {
  // Register "test-fail" once per process: it fails 20 s into a window.
  static const bool registered = [] {
    ControlRegistry::instance().add(ControlEntry{
        "test-fail",
        "test-only: throw 20 s into the window",
        {},
        [](const ScenarioSpec& spec, const ParamMap&) {
          return sim::ControlSelection::governed(
              std::make_unique<FailingGovernor>(spec.platform,
                                                spec.t_start + 20.0));
        },
    });
    return true;
  }();
  ASSERT_TRUE(registered);

  GridOptions opt;
  opt.count = 4;
  opt.controls = {"pns", "gov:ondemand"};
  auto specs = make_scenario_grid(0xFA1ED1A4ull, opt);
  for (auto& spec : specs) {  // mid-day and warm: every SoC stays up
    spec.integrator = IntegratorSpec::parse("rk23simd");
    spec.condition = trace::WeatherCondition::kFullSun;
    spec.t_start = 12.0 * 3600.0;
    spec.t_end = spec.t_start + 60.0;
    spec.vc0 = 5.3;
  }
  specs[0].t_end = specs[0].t_start + 2.0;  // done before anyone fails
  const auto ref = scalar_reference(specs);  // ref[2] goes unused
  specs[2].control = ControlSpec::parse("test-fail");

  // The short row leaves the batch before the throw and is final; the
  // throw poisons only the rows still running, which rerun scalar.
  std::vector<std::size_t> order;
  std::vector<SweepOutcome> got(specs.size());
  ScenarioAssets assets;
  run_scenarios_batched(specs.data(), specs.size(), assets,
                        [&](std::size_t i, SweepOutcome&& out) {
                          order.push_back(i);
                          got[i] = std::move(out);
                        });
  ASSERT_EQ(order.size(), specs.size());
  EXPECT_EQ(order.front(), 0u);
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < specs.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_FALSE(got[2].ok);
  EXPECT_NE(got[2].error.find("test-fail"), std::string::npos)
      << got[2].error;
  for (const std::size_t i : {std::size_t{0}, std::size_t{1},
                              std::size_t{3}}) {
    ASSERT_TRUE(got[i].ok) << got[i].error;
    EXPECT_EQ(canonical_metrics(got[i]), ref[i]) << specs[i].label;
  }
}

TEST(BatchParity, AnOnOutcomeThrowPropagatesAndIsNotRetried) {
  // A failing sink (a journal that cannot append) is the caller's error,
  // not a lane's: it propagates instead of triggering the scalar rerun.
  GridOptions opt;
  opt.count = 3;
  auto specs = make_scenario_grid(0x5111CEull, opt);
  for (auto& spec : specs) spec.integrator = IntegratorSpec::parse("rk23simd");
  ScenarioAssets assets;
  std::size_t calls = 0;
  EXPECT_THROW(run_scenarios_batched(specs.data(), specs.size(), assets,
                                     [&](std::size_t, SweepOutcome&&) {
                                       ++calls;
                                       throw std::runtime_error("sink");
                                     }),
               std::runtime_error);
  EXPECT_EQ(calls, 1u);
}

TEST(BatchParity, NewtonStressGridsMatchAtEveryWidth) {
  // Dawn/dusk irradiance ramps, near-brownout stiff spans, and lanes
  // mixing tabulated and exact PV: the inputs most likely to expose a
  // batched solve that is almost-but-not-quite the scalar sequence.
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
