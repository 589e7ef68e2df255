// Seeded fuzz of the batched engine's lane-retirement paths.
//
// Three ways a lane leaves the shared lockstep rounds (see
// sim/batch_engine.hpp):
//   * event root   -- the window closes at the root, the lane rejoins at
//                     the next superstep;
//   * divergence   -- the window outlives the round budget and finishes
//                     in the scalar tail loop inside run_rounds;
//   * coast        -- the lane retires for good and finishes the rest of
//                     the simulation in the scalar run() loop.
// Every path is scheduling-only: the retired/diverged lane must produce
// exactly the bits the scalar engine produces, from the retirement point
// through the end. The synthetic tests pin this on the stepper with
// analytic systems; the fuzz drives whole scenario batches under a
// divergence budget of 1 (every multi-step window diverges) and checks
// the population actually exercised all three paths.
#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../support/scenario_grid.hpp"
#include "ehsim/ode.hpp"
#include "ehsim/rk23.hpp"
#include "ehsim/rk23_batch.hpp"
#include "sim/batch_engine.hpp"
#include "sim/experiment.hpp"
#include "sweep/assets.hpp"
#include "sweep/registry.hpp"
#include "sweep/scenario.hpp"

namespace pns::ehsim {
namespace {

/// y' = -k y: cheap, smooth, and step counts vary with k -- good for
/// making one lane's window outlast another's.
class ExpDecay : public OdeSystem {
 public:
  explicit ExpDecay(double k) : k_(k) {}
  double derivative(double, double y) const override { return -k_ * y; }

 private:
  double k_;
};

struct ScalarRun {
  IntegrationResult result;
  double t = 0.0;
  double y = 0.0;
};

ScalarRun scalar_window(const OdeSystem& sys, double y0, double t_end,
                        std::span<const EventSpec> events,
                        const Rk23Options& opts) {
  Rk23Integrator ig(sys, opts);
  ig.reset(0.0, y0);
  ScalarRun run;
  run.result = ig.advance(t_end, events);
  run.t = ig.time();
  run.y = ig.state();
  return run;
}

/// Opens one window on every lane and runs the stepper to completion.
void run_batch_windows(std::vector<Rk23Integrator*>& igs,
                       std::vector<IntegrationResult>& results,
                       std::vector<LaneStatus>& status, double t_end,
                       std::span<const EventSpec> events,
                       Rk23BatchStepper& stepper) {
  for (std::size_t i = 0; i < igs.size(); ++i)
    if (igs[i]->begin_window(t_end, events, results[i]))
      status[i] = LaneStatus::kLockstep;
  stepper.run_rounds(igs, results, status, /*rhs=*/nullptr);
}

TEST(BatchFallback, DivergentTailWindowIsBitIdenticalToScalar) {
  // Decay rates spread over two decades: under a tolerance tight enough
  // to need many steps, the fast lanes' windows outlast the slow ones'
  // round budget and take the tail path.
  const std::vector<double> ks = {0.1, 1.0, 30.0, 90.0};
  Rk23Options opts;
  opts.rel_tol = 1e-9;
  std::vector<std::unique_ptr<ExpDecay>> systems;
  std::vector<std::unique_ptr<Rk23Integrator>> owned;
  std::vector<Rk23Integrator*> igs;
  for (const double k : ks) {
    systems.push_back(std::make_unique<ExpDecay>(k));
    owned.push_back(std::make_unique<Rk23Integrator>(*systems.back(), opts));
    owned.back()->reset(0.0, 1.0);
    igs.push_back(owned.back().get());
  }
  std::vector<LaneStatus> status(igs.size(), LaneStatus::kIdle);
  std::vector<IntegrationResult> results(igs.size());
  Rk23BatchStepper stepper(Rk23BatchOptions{/*divergence_rounds=*/2});
  run_batch_windows(igs, results, status, 3.0, {}, stepper);

  EXPECT_GT(stepper.stats().divergences, 0u)
      << "fuzz premise broken: no lane ever left lockstep";
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const ScalarRun ref = scalar_window(*systems[i], 1.0, 3.0, {}, opts);
    EXPECT_EQ(results[i].t, ref.result.t) << "k=" << ks[i];
    EXPECT_EQ(results[i].steps_taken, ref.result.steps_taken)
        << "k=" << ks[i];
    EXPECT_EQ(results[i].rejected_steps, ref.result.rejected_steps)
        << "k=" << ks[i];
    EXPECT_EQ(igs[i]->time(), ref.t) << "k=" << ks[i];
    EXPECT_EQ(igs[i]->state(), ref.y) << "k=" << ks[i];
    EXPECT_EQ(status[i], LaneStatus::kIdle);
  }
}

TEST(BatchFallback, EventRootStopsTheLaneExactlyWhereScalarDoes) {
  const std::vector<double> ks = {0.5, 2.0, 5.0};
  const std::vector<EventSpec> events = {
      EventSpec::threshold(0.25, EventDirection::kFalling, /*tag=*/7)};
  Rk23Options opts;
  std::vector<std::unique_ptr<ExpDecay>> systems;
  std::vector<std::unique_ptr<Rk23Integrator>> owned;
  std::vector<Rk23Integrator*> igs;
  for (const double k : ks) {
    systems.push_back(std::make_unique<ExpDecay>(k));
    owned.push_back(std::make_unique<Rk23Integrator>(*systems.back(), opts));
    owned.back()->reset(0.0, 1.0);
    igs.push_back(owned.back().get());
  }
  std::vector<LaneStatus> status(igs.size(), LaneStatus::kIdle);
  std::vector<IntegrationResult> results(igs.size());
  Rk23BatchStepper stepper;
  run_batch_windows(igs, results, status, 50.0, events, stepper);

  EXPECT_EQ(stepper.stats().event_windows, ks.size());
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const ScalarRun ref =
        scalar_window(*systems[i], 1.0, 50.0, events, opts);
    ASSERT_TRUE(ref.result.event_fired);
    EXPECT_TRUE(results[i].event_fired) << "k=" << ks[i];
    EXPECT_EQ(results[i].event_tag, 7);
    EXPECT_EQ(results[i].t, ref.result.t) << "k=" << ks[i];
    EXPECT_EQ(igs[i]->time(), ref.t) << "k=" << ks[i];
    EXPECT_EQ(igs[i]->state(), ref.y) << "k=" << ks[i];
  }
}

// ------------------------------------------------------- scenario fuzz

using testsupport::GridOptions;
using testsupport::canonical_metrics;
using testsupport::make_scenario_grid;

/// One resolved scenario lane (what run_scenarios_batched builds
/// internally), constructed here so the test can pick BatchEngineOptions.
struct Lane {
  std::unique_ptr<PvSource> source;
  sim::EngineBundle bundle;
};

Lane make_lane(const sweep::ScenarioSpec& spec,
               sweep::ScenarioAssets& assets) {
  const auto& source_entry =
      sweep::SourceRegistry::instance().require(spec.source.kind);
  sim::ControlSelection control =
      sweep::resolve_control(spec.control, spec);
  Lane lane;
  lane.source =
      std::make_unique<PvSource>(sweep::resolve_source(spec, assets));
  lane.bundle = sim::make_pv_engine(spec.platform, *lane.source,
                                    std::move(control),
                                    sweep::make_sim_config(spec),
                                    source_entry.solar_defaults);
  return lane;
}

TEST(BatchFallback, RetiredLanesMatchScalarUnderAOneRoundBudget) {
  // divergence_rounds=1 turns every multi-step window into a tail
  // finish; coasting scenarios retire whole lanes mid-run. Across the
  // seeded population all three retirement classes must fire, and every
  // lane must still reproduce its scalar rk23pi metrics exactly.
  std::uint64_t divergences = 0, event_windows = 0, coast_retirements = 0;
  for (const std::uint64_t seed :
       {0xFA11BACCull, 0x0C0A57EDull, 0xD1F0FA57ull}) {
    GridOptions opt;
    opt.count = 4;
    opt.min_window_s = 40.0;
    opt.integrator = "rk23simd";
    const auto specs = make_scenario_grid(seed, opt);

    std::vector<std::string> ref;
    {
      sweep::ScenarioAssets assets;
      for (auto spec : specs) {
        spec.integrator = sweep::IntegratorSpec::parse("rk23pi");
        ref.push_back(
            canonical_metrics(spec, sweep::run_scenario(spec, assets)));
      }
    }

    sweep::ScenarioAssets assets;
    std::vector<Lane> lanes;
    std::vector<sim::SimEngine*> engines;
    for (const auto& spec : specs) {
      lanes.push_back(make_lane(spec, assets));
      engines.push_back(lanes.back().bundle.engine.get());
    }
    sim::BatchEngine batch(std::move(engines),
                           sim::BatchEngineOptions{/*divergence_rounds=*/1});
    const auto results = batch.run();
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
      EXPECT_EQ(canonical_metrics(specs[i], results[i]), ref[i])
          << specs[i].label;

    divergences += batch.stats().stepping.divergences;
    event_windows += batch.stats().stepping.event_windows;
    coast_retirements += batch.stats().coast_retirements;
  }
  EXPECT_GT(divergences, 0u);
  EXPECT_GT(event_windows, 0u);
  EXPECT_GT(coast_retirements, 0u)
      << "fuzz premise broken: no scenario in the population coasts";
}

TEST(BatchFallback, PackedBatchDroppingToOneLaneMatchesScalar) {
  // Lane 0's run ends after a few seconds and lane 1 runs on alone. One
  // lane in lockstep has nothing to pack, so its remaining rounds step
  // through step_window() -- and must still reproduce rk23pi bit for
  // bit. Coasting is off so lane 1 stays in the rounds instead of
  // retiring.
  std::vector<sweep::ScenarioSpec> specs(2);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].label = "lane-" + std::to_string(i);
    specs[i].condition = trace::WeatherCondition::kPartialSun;
    specs[i].t_start = 12.0 * 3600.0;
    specs[i].record_series = false;
  }
  specs[0].t_end = specs[0].t_start + 5.0;
  specs[1].t_end = specs[1].t_start + 60.0;

  sweep::ScenarioAssets assets;
  std::vector<std::string> ref;
  for (auto spec : specs) {
    spec.integrator = sweep::IntegratorSpec::parse("rk23pi:coast=false");
    ref.push_back(canonical_metrics(spec, sweep::run_scenario(spec, assets)));
  }

  std::vector<Lane> lanes;
  std::vector<sim::SimEngine*> engines;
  for (auto& spec : specs) {
    spec.integrator = sweep::IntegratorSpec::parse("rk23simd:coast=false");
    lanes.push_back(make_lane(spec, assets));
    engines.push_back(lanes.back().bundle.engine.get());
  }
  sim::BatchEngineOptions opt;
  opt.simd = true;
  sim::BatchEngine batch(std::move(engines), opt);
  const auto results = batch.run();
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(canonical_metrics(specs[i], results[i]), ref[i])
        << specs[i].label;

  // Both lanes staged packed while open together; lane 1's lone rounds
  // (most of the run) did not.
  const BatchStepStats& st = batch.stats().stepping;
  EXPECT_GT(st.simd_lane_steps, 0u);
  EXPECT_LT(2 * st.simd_lane_steps, st.lockstep_steps);
}

}  // namespace
}  // namespace pns::ehsim
