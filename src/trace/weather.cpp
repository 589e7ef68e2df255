#include "trace/weather.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace pns::trace {

const char* to_string(WeatherCondition c) {
  switch (c) {
    case WeatherCondition::kFullSun:
      return "full-sun";
    case WeatherCondition::kPartialSun:
      return "partial-sun";
    case WeatherCondition::kCloud:
      return "cloud";
    case WeatherCondition::kHail:
      return "hail";
  }
  return "unknown";
}

const std::vector<WeatherCondition>& all_weather_conditions() {
  static const std::vector<WeatherCondition> all = {
      WeatherCondition::kFullSun, WeatherCondition::kPartialSun,
      WeatherCondition::kCloud, WeatherCondition::kHail};
  return all;
}

std::optional<WeatherCondition> weather_condition_from_string(
    std::string_view name) {
  for (WeatherCondition c : all_weather_conditions())
    if (name == to_string(c)) return c;
  return std::nullopt;
}

WeatherParams weather_params_for(WeatherCondition c) {
  switch (c) {
    case WeatherCondition::kFullSun:
      // Cloudless day: rare thin haze only (the paper's Fig. 12 trace is
      // visibly smooth).
      return {.mean_clear_s = 1800.0,
              .mean_occluded_s = 12.0,
              .clear_level = 1.0,
              .occluded_level = 0.85,
              .ou_tau_s = 4.0,
              .ou_sigma = 0.006,
              .level_jitter = 0.05};
    case WeatherCondition::kPartialSun:
      // Broken cumulus: frequent deep shadows.
      return {.mean_clear_s = 180.0,
              .mean_occluded_s = 90.0,
              .clear_level = 0.95,
              .occluded_level = 0.30,
              .ou_tau_s = 2.0,
              .ou_sigma = 0.03,
              .level_jitter = 0.15};
    case WeatherCondition::kCloud:
      // Overcast: persistently low with slow undulation.
      return {.mean_clear_s = 60.0,
              .mean_occluded_s = 600.0,
              .clear_level = 0.45,
              .occluded_level = 0.18,
              .ou_tau_s = 8.0,
              .ou_sigma = 0.02,
              .level_jitter = 0.10};
    case WeatherCondition::kHail:
      // Storm cells: very dark with violent fast swings.
      return {.mean_clear_s = 45.0,
              .mean_occluded_s = 240.0,
              .clear_level = 0.35,
              .occluded_level = 0.08,
              .ou_tau_s = 1.0,
              .ou_sigma = 0.05,
              .level_jitter = 0.25};
  }
  return {};
}

namespace {

/// The transmittance process sampled every `dt` over [t0, t1]: knot
/// times into `ts`, transmittance into `xs`. synthesize_irradiance
/// scales `xs` in place, so a trace is built in one knot pair.
void fill_transmittance(const WeatherParams& p, double t0, double t1,
                        double dt, std::uint64_t seed,
                        std::vector<double>& ts, std::vector<double>& xs) {
  PNS_EXPECTS(t1 > t0);
  PNS_EXPECTS(dt > 0.0);
  PNS_EXPECTS(p.mean_clear_s > 0.0 && p.mean_occluded_s > 0.0);
  PNS_EXPECTS(p.ou_tau_s > 0.0);

  pns::Rng rng(seed);
  const auto n = static_cast<std::size_t>(std::ceil((t1 - t0) / dt)) + 1;
  ts.resize(n);
  xs.resize(n);

  bool occluded = rng.bernoulli(
      p.mean_occluded_s / (p.mean_clear_s + p.mean_occluded_s));
  double next_switch =
      t0 + rng.exponential(occluded ? p.mean_occluded_s : p.mean_clear_s);
  auto draw_target = [&](bool occ) {
    const double base = occ ? p.occluded_level : p.clear_level;
    const double jit = 1.0 + p.level_jitter * rng.normal();
    return std::clamp(base * jit, 0.0, 1.0);
  };
  double target = draw_target(occluded);
  double x = target;

  const double sqrt_dt = std::sqrt(dt);
  for (std::size_t k = 0; k < n; ++k) {
    const double t = t0 + dt * static_cast<double>(k);
    while (t >= next_switch) {
      occluded = !occluded;
      next_switch +=
          rng.exponential(occluded ? p.mean_occluded_s : p.mean_clear_s);
      target = draw_target(occluded);
    }
    // OU step towards the current target.
    x += (target - x) / p.ou_tau_s * dt + p.ou_sigma * sqrt_dt * rng.normal();
    x = std::clamp(x, 0.0, 1.0);
    ts[k] = t;
    xs[k] = x;
  }
}

}  // namespace

pns::PiecewiseLinear synthesize_transmittance(const WeatherParams& p,
                                              double t0, double t1,
                                              double dt,
                                              std::uint64_t seed) {
  std::vector<double> ts, xs;
  fill_transmittance(p, t0, t1, dt, seed, ts, xs);
  return pns::PiecewiseLinear(std::move(ts), std::move(xs));
}

pns::PiecewiseLinear synthesize_irradiance(const ClearSky& sky,
                                           WeatherCondition condition,
                                           double t0, double t1, double dt,
                                           std::uint64_t seed) {
  std::vector<double> ts, gs;
  fill_transmittance(weather_params_for(condition), t0, t1, dt, seed, ts,
                     gs);
  // Same operands in the same order as scaling a separate transmittance
  // trace, so the same bits (tests/trace/test_weather.cpp).
  for (std::size_t k = 0; k < ts.size(); ++k)
    gs[k] = sky.irradiance(ts[k]) * gs[k];
  return pns::PiecewiseLinear(std::move(ts), std::move(gs));
}

pns::PiecewiseLinear shadowing_event(double t0, double t1, double t_event,
                                     double t_fall, double hold_s,
                                     double t_rise, double depth) {
  PNS_EXPECTS(t0 < t1);
  PNS_EXPECTS(t_event >= t0);
  PNS_EXPECTS(t_fall > 0.0 && t_rise > 0.0 && hold_s >= 0.0);
  PNS_EXPECTS(depth >= 0.0 && depth <= 1.0);
  PNS_EXPECTS(t_event + t_fall + hold_s + t_rise <= t1);
  std::vector<std::pair<double, double>> pts;
  pts.emplace_back(t0, 1.0);
  if (t_event > t0) pts.emplace_back(t_event, 1.0);
  pts.emplace_back(t_event + t_fall, depth);
  pts.emplace_back(t_event + t_fall + hold_s, depth);
  pts.emplace_back(t_event + t_fall + hold_s + t_rise, 1.0);
  pts.emplace_back(t1, 1.0);
  // Deduplicate identical consecutive x (t_event == t0 case handled above).
  std::vector<double> xs, ys;
  for (const auto& [x, y] : pts) {
    if (!xs.empty() && x <= xs.back()) continue;
    xs.push_back(x);
    ys.push_back(y);
  }
  return pns::PiecewiseLinear(std::move(xs), std::move(ys));
}

}  // namespace pns::trace
