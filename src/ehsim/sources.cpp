#include "ehsim/sources.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace pns::ehsim {

PvSource::PvSource(SolarCell cell, std::function<double(double)> irradiance,
                   Mode mode, PvTableSpec table_spec)
    : cell_(std::move(cell)),
      irradiance_(std::move(irradiance)),
      mode_(mode) {
  PNS_EXPECTS(static_cast<bool>(irradiance_));
  if (mode_ == Mode::kTabulated)
    table_ = std::make_shared<const PvTable>(cell_, table_spec);
}

PvSource::PvSource(SolarCell cell, std::function<double(double)> irradiance,
                   std::shared_ptr<const PvTable> table)
    : cell_(std::move(cell)),
      irradiance_(std::move(irradiance)),
      mode_(Mode::kTabulated),
      table_(std::move(table)) {
  PNS_EXPECTS(static_cast<bool>(irradiance_));
  PNS_EXPECTS(table_ != nullptr);
}

double PvSource::current(double v, double t) const {
  // current() is the plan executed inline, so the scalar path and the
  // batched path (plan -> batched solve -> commit) share one copy
  // of the classification, seeding and cache logic -- they cannot drift.
  const SolvePlan plan = plan_current(v, t);
  switch (plan.path) {
    case SolvePlan::Path::kMemo:
      return plan.value;
    case SolvePlan::Path::kTable:
      return table_->current(plan.v, plan.g);
    case SolvePlan::Path::kNewton:
      break;
  }
  std::uint32_t iters = 0;
  const double i =
      cell_.current_from_photo_counted(plan.v, plan.il, plan.seed, &iters);
  commit_newton(plan, i, iters, /*batched=*/false);
  return i;
}

PvSource::SolvePlan PvSource::plan_current(double v, double t) const {
  ++stats_.calls;
  SolvePlan plan;
  plan.v = v;
  plan.g = irradiance_(t);
  if (table_ && table_->covers(v, plan.g)) {
    ++stats_.table_hits;
    plan.path = SolvePlan::Path::kTable;
    return plan;
  }

  plan.il = cell_.photo_current(plan.g);
  if (solve_cache_.valid && v == solve_cache_.v &&
      plan.il == solve_cache_.il) {
    ++stats_.memo_hits;
    plan.path = SolvePlan::Path::kMemo;
    plan.value = solve_cache_.i;
    return plan;
  }

  plan.path = SolvePlan::Path::kNewton;
  if (table_ && solve_cache_.valid &&
      std::abs(v - solve_cache_.v) < kWarmStartDeltaV &&
      std::abs(plan.il - solve_cache_.il) < kWarmStartDeltaIl) {
    // Off-table fallback in tabulated mode: the exact-reproducibility
    // contract is already relaxed, so warm-start the Newton iteration.
    plan.seed = solve_cache_.i;
    plan.warm = true;
  } else {
    // Start at the photo-current (see SolarCell::current_from_photo).
    plan.seed = plan.il;
  }
  return plan;
}

void PvSource::commit_newton(const SolvePlan& plan, double i,
                             std::uint32_t iters, bool batched) const {
  PNS_EXPECTS(plan.path == SolvePlan::Path::kNewton);
  ++stats_.newton_solves;
  stats_.newton_iterations += iters;
  if (plan.warm) ++stats_.warm_starts;
  if (batched) ++stats_.simd_lanes;
  solve_cache_ = {plan.v, plan.il, i, true};
}

double PvSource::available_power(double t) const {
  const double g = irradiance_(t);
  if (mpp_cache_.valid && g == mpp_cache_.g) return mpp_cache_.power;
  const double p = cell_.mpp(g).power;
  mpp_cache_ = {g, p, true};
  return p;
}

ControlledSupply::ControlledSupply(std::function<double(double)> v_source,
                                   double series_resistance,
                                   bool diode_isolated)
    : v_source_(std::move(v_source)),
      series_resistance_(series_resistance),
      diode_isolated_(diode_isolated) {
  PNS_EXPECTS(static_cast<bool>(v_source_));
  PNS_EXPECTS(series_resistance_ > 0.0);
}

double ControlledSupply::current(double v, double t) const {
  const double i = (v_source_(t) - v) / series_resistance_;
  if (diode_isolated_) return std::max(0.0, i);
  return i;
}

double ControlledSupply::available_power(double t) const {
  // Max power transfer at v = Vs/2: P = Vs^2 / (4 R).
  const double vs = v_source_(t);
  return vs * vs / (4.0 * series_resistance_);
}

}  // namespace pns::ehsim
