// Tests for the ODE integrators (ehsim/rk23, ehsim/fixed_step):
// convergence orders on analytic systems, threshold-event localisation
// (bisection and dense-output root, and the dense root's refire guard),
// the PI step controller, and cross-integrator parity on the paper's
// storage-node circuit.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "ehsim/circuit.hpp"
#include "ehsim/dense_output.hpp"
#include "ehsim/fixed_step.hpp"
#include "ehsim/loads.hpp"
#include "ehsim/ode.hpp"
#include "ehsim/rk23.hpp"
#include "ehsim/sources.hpp"
#include "ehsim/stepper_pi.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

namespace pns::ehsim {
namespace {

/// y' = -k y, y(0) = 1 -> y(t) = exp(-k t).
class ExpDecay : public OdeSystem {
 public:
  explicit ExpDecay(double k) : k_(k) {}
  double derivative(double, double y) const override { return -k_ * y; }

 private:
  double k_;
};

/// y' = w cos(w t), y(0) = 0 -> y(t) = sin(w t): a periodic solution.
class Sinusoid : public OdeSystem {
 public:
  explicit Sinusoid(double w) : w_(w) {}
  double derivative(double t, double) const override {
    return w_ * std::cos(w_ * t);
  }

 private:
  double w_;
};

/// y' = c - k y: relaxes from y0 towards c / k.
class Relaxation : public OdeSystem {
 public:
  Relaxation(double c, double k) : c_(c), k_(k) {}
  double derivative(double, double y) const override { return c_ - k_ * y; }

 private:
  double c_, k_;
};

/// y' = -1: integrated exactly by RK23 (zero error estimate).
class Ramp : public OdeSystem {
 public:
  double derivative(double, double) const override { return -1.0; }
};

double rk4_error(double h) {
  ExpDecay sys(1.0);
  return std::abs(integrate_rk4(sys, 0.0, 1.0, 1.0, h) - std::exp(-1.0));
}

TEST(FixedStep, Rk4FourthOrderConvergence) {
  const double e1 = rk4_error(0.05);
  const double e2 = rk4_error(0.025);
  const double order = std::log2(e1 / e2);
  EXPECT_NEAR(order, 4.0, 0.3);
}

TEST(FixedStep, HandlesPartialFinalStep) {
  ExpDecay sys(1.0);
  // 9 full + 1 half step
  EXPECT_NEAR(integrate_rk4(sys, 0.0, 1.0, 0.95, 0.1), std::exp(-0.95),
              1e-6);
}

TEST(Rk23, AccurateOnExpDecay) {
  ExpDecay sys(2.0);
  Rk23Options opt;
  opt.rel_tol = 1e-8;
  opt.abs_tol = 1e-10;
  Rk23Integrator ig(sys, opt);
  const double y0 = 1.0;
  ig.reset(0.0, y0);
  const auto res = ig.advance(2.0);
  EXPECT_FALSE(res.event_fired);
  EXPECT_DOUBLE_EQ(ig.time(), 2.0);
  EXPECT_NEAR(ig.state(), std::exp(-4.0), 1e-7);
}

TEST(Rk23, TracksPeriodicSolution) {
  Sinusoid sys(2.0 * std::numbers::pi);  // 1 Hz
  Rk23Options opt;
  opt.rel_tol = 1e-9;
  opt.abs_tol = 1e-12;
  Rk23Integrator ig(sys, opt);
  ig.reset(0.0, 0.0);
  ig.advance(5.25);  // 5 1/4 periods: sin lands on its crest
  EXPECT_NEAR(ig.state(), 1.0, 1e-5);
  ig.advance(5.75);  // and half a period later on its trough
  EXPECT_NEAR(ig.state(), -1.0, 1e-5);
}

TEST(Rk23, ToleranceControlsError) {
  ExpDecay sys(1.0);
  auto run = [&](double rtol) {
    Rk23Options opt;
    opt.rel_tol = rtol;
    opt.abs_tol = rtol * 1e-3;
    Rk23Integrator ig(sys, opt);
    const double y0 = 1.0;
    ig.reset(0.0, y0);
    ig.advance(1.0);
    return std::abs(ig.state() - std::exp(-1.0));
  };
  EXPECT_LT(run(1e-9), run(1e-4));
  EXPECT_LT(run(1e-4), 1e-3);
}

TEST(Rk23, LooserToleranceTakesFewerSteps) {
  ExpDecay sys(1.0);
  auto steps = [&](double rtol) {
    Rk23Options opt;
    opt.rel_tol = rtol;
    opt.abs_tol = 1e-12;
    Rk23Integrator ig(sys, opt);
    const double y0 = 1.0;
    ig.reset(0.0, y0);
    ig.advance(10.0);
    return ig.total_steps();
  };
  EXPECT_LT(steps(1e-3), steps(1e-8));
}

TEST(Rk23, RespectsMaxStep) {
  ExpDecay sys(1e-6);  // nearly constant -> wants huge steps
  Rk23Options opt;
  opt.max_step = 0.125;
  Rk23Integrator ig(sys, opt);
  const double y0 = 1.0;
  ig.reset(0.0, y0);
  const auto res = ig.advance(1.0);
  EXPECT_GE(res.steps_taken, 8u);
}

TEST(Rk23, EventLocalisedAccurately) {
  // y = exp(-t) crosses 0.5 at t = ln 2.
  ExpDecay sys(1.0);
  Rk23Integrator ig(sys);
  const double y0 = 1.0;
  ig.reset(0.0, y0);
  const auto ev = EventSpec::threshold(0.5, EventDirection::kFalling, 42);
  const auto res = ig.advance(5.0, std::span<const EventSpec>(&ev, 1));
  ASSERT_TRUE(res.event_fired);
  EXPECT_EQ(res.event_tag, 42);
  EXPECT_NEAR(res.t, std::numbers::ln2, 1e-5);
  EXPECT_NEAR(ig.state(), 0.5, 1e-5);
}

TEST(Rk23, RisingEventIgnoredOnFallingSignal) {
  ExpDecay sys(1.0);
  Rk23Integrator ig(sys);
  const double y0 = 1.0;
  ig.reset(0.0, y0);
  const auto ev = EventSpec::threshold(0.5, EventDirection::kRising, 1);
  const auto res = ig.advance(3.0, std::span<const EventSpec>(&ev, 1));
  EXPECT_FALSE(res.event_fired);
  EXPECT_DOUBLE_EQ(res.t, 3.0);
}

TEST(Rk23, ContinuesAfterEvent) {
  ExpDecay sys(1.0);
  Rk23Integrator ig(sys);
  const double y0 = 1.0;
  ig.reset(0.0, y0);
  const auto ev = EventSpec::threshold(0.5, EventDirection::kFalling, 1);
  auto res = ig.advance(5.0, std::span<const EventSpec>(&ev, 1));
  ASSERT_TRUE(res.event_fired);
  // Advance again; the state already sits on the crossed side of the
  // level, so no new falling crossing fires and the run completes.
  res = ig.advance(5.0, std::span<const EventSpec>(&ev, 1));
  EXPECT_FALSE(res.event_fired);
  EXPECT_NEAR(ig.state(), std::exp(-5.0), 1e-6);
}

TEST(Rk23, EarliestOfMultipleEventsWins) {
  ExpDecay sys(1.0);
  Rk23Integrator ig(sys);
  const double y0 = 1.0;
  ig.reset(0.0, y0);
  const std::vector<EventSpec> evs{
      EventSpec::threshold(0.3, EventDirection::kFalling, 1),
      EventSpec::threshold(0.7, EventDirection::kFalling, 2),
  };
  const auto res = ig.advance(5.0, evs);
  ASSERT_TRUE(res.event_fired);
  EXPECT_EQ(res.event_tag, 2);  // 0.7 crossed first
  EXPECT_NEAR(res.t, -std::log(0.7), 1e-5);
}

TEST(Rk23, EarliestOfTwoEventsInOneStepWins) {
  // Ramp is integrated exactly by RK23 (zero error estimate), so with a
  // forced large first step BOTH thresholds are crossed inside a single
  // accepted step. The later-listed event crosses first and must win the
  // earliest-root selection.
  Ramp sys;
  Rk23Options opt;
  opt.initial_step = 5.0;
  Rk23Integrator ig(sys, opt);
  const double y0 = 1.0;
  ig.reset(0.0, y0);
  std::vector<EventSpec> evs{
      EventSpec::threshold(0.35, EventDirection::kFalling, 1),
      EventSpec::threshold(0.65, EventDirection::kFalling, 2),  // earlier
  };
  const auto res = ig.advance(5.0, evs);
  ASSERT_TRUE(res.event_fired);
  EXPECT_EQ(res.steps_taken, 1u);  // both crossings in the same step
  EXPECT_EQ(res.event_tag, 2);
  EXPECT_NEAR(res.t, 0.35, 1e-5);  // y = 1 - t hits 0.65 at t = 0.35
}

TEST(Rk23, AdvancePastEndIsNoop) {
  ExpDecay sys(1.0);
  Rk23Integrator ig(sys);
  const double y0 = 1.0;
  ig.reset(1.0, y0);
  const auto res = ig.advance(0.5);
  EXPECT_EQ(res.steps_taken, 0u);
  EXPECT_DOUBLE_EQ(ig.time(), 1.0);
}

// ------------------------------------------------- PI step controller

TEST(PiStepController, AcceptGrowsRejectShrinks) {
  PiStepController pi;
  const double grow = pi.on_accepted(1e-4);
  EXPECT_GT(grow, 1.0);
  const double shrink = pi.on_rejected(2.0);
  EXPECT_LT(shrink, 1.0);
  EXPECT_EQ(pi.rejections(), 1u);
  // Growth immediately after a rejection is capped at 1.
  EXPECT_LE(pi.on_accepted(1e-6), 1.0);
}

TEST(PiStepController, IntegralTermSmoothsGrowth) {
  // With history, growth is damped by the previous (small) error: the
  // controller walks h up smoothly instead of slamming into the clamp
  // and rejecting. The first accepted step (no history) falls back to
  // the eager elementary rule.
  PiStepController with_history;
  with_history.on_accepted(1e-4);
  const double damped = with_history.on_accepted(1e-4);
  PiStepController fresh;
  const double eager = fresh.on_accepted(1e-4);
  EXPECT_LT(damped, eager);
  EXPECT_GT(damped, 1.0);
}

TEST(Rk23, PiControlTakesFewerStepsOnPaperCircuit) {
  // Engine-shaped workload: the storage node under constant harvest,
  // advanced in 50 ms segments at the classic 10 ms step ceiling. The
  // clamped rule oscillates around the tolerable step (grow 5x,
  // over-reach, shrink); the PI controller converges onto it and stays,
  // which is where BM_Rk23PiSecondOfCircuit's speedup comes from.
  const auto cell = pns::sim::paper_pv_array();
  const PvSource source(cell, [](double) { return 800.0; });
  const ConstantPowerLoad load(3.5);
  const EhCircuit circuit(source, load, Capacitor{47e-3, 50e3});
  auto steps = [&](StepControl sc) {
    Rk23Options opt;
    opt.rel_tol = 1e-6;
    opt.abs_tol = 1e-8;
    opt.max_step = 0.01;
    opt.step_control = sc;
    Rk23Integrator ig(circuit, opt);
    const double v0 = 5.0;
    ig.reset(0.0, v0);
    for (double t = 0.0; t < 10.0; t += 0.05) ig.advance(t + 0.05);
    return ig.total_steps() + ig.total_rejected();
  };
  EXPECT_LT(steps(StepControl::kPi), steps(StepControl::kClamped));
}

TEST(Rk23, PiStaysAccurateOnExpDecay) {
  ExpDecay sys(2.0);
  Rk23Options opt;
  opt.rel_tol = 1e-8;
  opt.abs_tol = 1e-10;
  opt.step_control = StepControl::kPi;
  Rk23Integrator ig(sys, opt);
  const double y0 = 1.0;
  ig.reset(0.0, y0);
  const auto res = ig.advance(2.0);
  EXPECT_FALSE(res.event_fired);
  EXPECT_NEAR(ig.state(), std::exp(-4.0), 1e-7);
}

// ------------------------------------------------- dense-output roots

TEST(DenseOutput, HermiteCubicReproducesEndpointData) {
  const auto c = HermiteCubic::from_step(0.5, 2.0, 1.0, -3.0, -1.0);
  EXPECT_NEAR(c.eval(0.0), 2.0, 1e-12);
  EXPECT_NEAR(c.eval(1.0), 1.0, 1e-12);
  // d/ds = c1 + 2 c2 s + 3 c3 s^2 = h * dy/dt at both ends.
  EXPECT_NEAR(c.c1, 0.5 * -3.0, 1e-12);
  EXPECT_NEAR(c.c1 + 2.0 * c.c2 + 3.0 * c.c3, 0.5 * -1.0, 1e-12);
}

TEST(DenseOutput, FindsEarliestOfMultipleCrossings) {
  // y(s) = cos(2 pi s)-ish shape via Hermite data: falls then rises, so
  // level 0 is crossed twice; kFalling must return the first crossing
  // and kRising the second.
  const auto c = HermiteCubic::from_step(1.0, 1.0, 1.0, -8.0, 8.0);
  const auto falling =
      earliest_crossing(c, 0.0, EventDirection::kFalling, 1e-9);
  const auto rising =
      earliest_crossing(c, 0.0, EventDirection::kRising, 1e-9);
  // Falling crossing must exist and precede the rising one.
  ASSERT_TRUE(falling.found);
  ASSERT_TRUE(rising.found);
  EXPECT_LT(falling.s, rising.s);
}

TEST(Rk23, DenseRootMatchesBisectionRoot) {
  // The satellite contract: on the same event, the dense-output cubic
  // root and the bisection root agree within the event tolerance.
  ExpDecay sys(1.0);
  const double y0 = 1.0;
  auto run = [&](EventLocalization el) {
    Rk23Options opt;
    opt.event_tol = 1e-9;
    opt.event_localization = el;
    Rk23Integrator ig(sys, opt);
    ig.reset(0.0, y0);
    const auto ev =
        EventSpec::threshold(0.5, EventDirection::kFalling, 3);
    return ig.advance(5.0, std::span<const EventSpec>(&ev, 1));
  };
  const auto dense = run(EventLocalization::kDenseRoot);
  const auto bisect = run(EventLocalization::kBisection);
  ASSERT_TRUE(dense.event_fired);
  ASSERT_TRUE(bisect.event_fired);
  EXPECT_EQ(dense.event_tag, 3);
  EXPECT_NEAR(dense.t, bisect.t, 1e-7);
  EXPECT_NEAR(dense.t, std::numbers::ln2, 1e-5);
}

TEST(Rk23, DenseRootEarliestOfTwoEventsInOneStepWins) {
  // The dense-root analogue of the ramp test: both thresholds cross in
  // one forced large step; the later-listed (earlier-crossing) event
  // must win under dense localisation too.
  Ramp sys;
  Rk23Options opt;
  opt.initial_step = 5.0;
  opt.event_localization = EventLocalization::kDenseRoot;
  Rk23Integrator ig(sys, opt);
  const double y0 = 1.0;
  ig.reset(0.0, y0);
  std::vector<EventSpec> evs{
      EventSpec::threshold(0.35, EventDirection::kFalling, 1),
      EventSpec::threshold(0.65, EventDirection::kFalling, 2),
  };
  const auto res = ig.advance(5.0, evs);
  ASSERT_TRUE(res.event_fired);
  EXPECT_EQ(res.event_tag, 2);
  EXPECT_NEAR(res.t, 0.35, 1e-5);
}

TEST(Rk23, DenseRootEventNeverRefiresAtItsInstant) {
  // A dense-output root maps s -> t -> s through interpolate(), which can
  // commit the state an ulp short of the threshold. Left there, the next
  // window re-arms the same event on the un-crossed baseline and fires it
  // again at (nearly) the same instant; the integrator snaps the state
  // onto the level to prevent that. Pinned over a seeded grid of
  // relaxations y' = c - k y whose threshold sits just past y0, in both
  // directions, under the rk23pi configuration (PI control, dense roots,
  // the engine's 1e-7 s event tolerance).
  Rng rng(20170327);
  int fired = 0, refires = 0;
  for (int i = 0; i < 20000; ++i) {
    const double k = rng.uniform(0.5, 50.0);
    const double y0 = rng.uniform(4.0, 6.0);
    const double target = y0 + rng.uniform(-1.0, 1.0);  // equilibrium c / k
    const Relaxation sys(k * target, k);
    const bool falling = target < y0;
    const double gap = rng.uniform(1e-6, 1e-2) * std::abs(target - y0);
    const auto ev = EventSpec::threshold(
        falling ? y0 - gap : y0 + gap,
        falling ? EventDirection::kFalling : EventDirection::kRising, 1);

    Rk23Options opt;
    opt.rel_tol = 1e-4;
    opt.abs_tol = 1e-8;
    opt.max_step = 0.25;
    opt.event_tol = 1e-7;
    opt.step_control = StepControl::kPi;
    opt.event_localization = EventLocalization::kDenseRoot;
    Rk23Integrator ig(sys, opt);
    ig.reset(0.0, y0);
    double last_t = -1.0;
    // A handful of windows is enough to see a refire without looping on
    // one. (A numerical overshoot of the equilibrium may cross the level
    // again later; only a firing within 1 us of the last is a refire.)
    for (int window = 0; window < 4; ++window) {
      const auto res = ig.advance(1.0, std::span<const EventSpec>(&ev, 1));
      if (!res.event_fired) break;
      ++fired;
      if (res.t - last_t < 1e-6) ++refires;
      last_t = res.t;
    }
  }
  EXPECT_GT(fired, 0);
  EXPECT_EQ(refires, 0);
}

// ------------------------------------- cross-integrator circuit parity

TEST(IntegratorParity, FixedRk23AndPiAgreeOnPaperCircuit) {
  // The paper's storage node under constant irradiance and a constant-
  // power load, integrated three ways: classic RK4 at a small fixed
  // step (reference), the default adaptive RK23, and the rk23pi
  // configuration (PI control + dense events, looser tolerance). All
  // three must agree on the final node voltage to well under a
  // millivolt over 10 simulated seconds.
  const auto cell = pns::sim::paper_pv_array();
  const PvSource source(cell, [](double) { return 800.0; });
  const ConstantPowerLoad load(3.5);
  const EhCircuit circuit(source, load, Capacitor{47e-3, 50e3});

  const double v0 = 5.0;
  const double ref = integrate_rk4(circuit, 0.0, v0, 10.0, 1e-3);

  auto adaptive = [&](StepControl sc, EventLocalization el, double rtol,
                      double max_step) {
    Rk23Options opt;
    opt.rel_tol = rtol;
    opt.abs_tol = 1e-8;
    opt.max_step = max_step;
    opt.step_control = sc;
    opt.event_localization = el;
    Rk23Integrator ig(circuit, opt);
    ig.reset(0.0, v0);
    ig.advance(10.0);
    return ig.state();
  };
  const double rk23 = adaptive(StepControl::kClamped,
                               EventLocalization::kBisection, 1e-6, 0.01);
  const double rk23pi = adaptive(StepControl::kPi,
                                 EventLocalization::kDenseRoot, 1e-4, 0.25);
  EXPECT_NEAR(rk23, ref, 1e-4);
  EXPECT_NEAR(rk23pi, ref, 5e-4);
  EXPECT_NEAR(rk23pi, rk23, 5e-4);
}

class Rk23ToleranceSweep : public ::testing::TestWithParam<double> {};

// Property: the achieved global error stays within two orders of magnitude
// of the requested relative tolerance for this smooth problem.
TEST_P(Rk23ToleranceSweep, ErrorTracksTolerance) {
  const double rtol = GetParam();
  ExpDecay sys(1.5);
  Rk23Options opt;
  opt.rel_tol = rtol;
  opt.abs_tol = rtol * 1e-2;
  Rk23Integrator ig(sys, opt);
  const double y0 = 2.0;
  ig.reset(0.0, y0);
  ig.advance(1.0);
  const double err = std::abs(ig.state() - 2.0 * std::exp(-1.5));
  EXPECT_LT(err, rtol * 100.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Tolerances, Rk23ToleranceSweep,
                         ::testing::Values(1e-3, 1e-4, 1e-5, 1e-6, 1e-7,
                                           1e-8));

}  // namespace
}  // namespace pns::ehsim
