// Built-in source kinds (provider domain: trace/ + ehsim/).
//
// Four harvest shapes feed the storage node out of the box:
//   solar    seeded stochastic weather over the clear-sky envelope
//            (Figs. 12-14; the weather condition is a spec axis or the
//            `weather=` param)
//   shadow   the deterministic Fig. 6 shadowing event
//   trace    a measured irradiance trace from a two-column CSV
//            (trace/trace_io), e.g. the paper's published dataset
//   flicker  a synthetic periodic cloud-flicker wave (trace/flicker) for
//            repeatable controller stress studies
// Every factory honours the spec's PV evaluation mode and drives the
// calibrated paper array. A new supply shape registers the same way:
// SourceRegistry::instance().add({kind, summary, params, ...}).
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "sweep/registry.hpp"
#include "trace/flicker.hpp"
#include "trace/trace_io.hpp"
#include "trace/weather.hpp"

namespace pns::sweep {

namespace {

/// Single site for the mode dispatch: an irradiance callable over the
/// paper array, sharing the process-wide table in tabulated mode.
ehsim::PvSource pv_source_from_sample(std::function<double(double)> sample,
                                      ehsim::PvSource::Mode mode) {
  if (mode == ehsim::PvSource::Mode::kTabulated)
    return ehsim::PvSource(sim::paper_pv_array(), std::move(sample),
                           sim::paper_pv_table());
  return ehsim::PvSource(sim::paper_pv_array(), std::move(sample));
}

/// Wraps a shared irradiance trace with the hinted-evaluation closures
/// (bit-identical to binary search, O(1) for the integrator's
/// near-monotone access): one samples the irradiance, the other declares
/// the trace's flat spans so the coasting fast path can jump across
/// them. Each closure keeps its own hint; the source keeps the trace
/// alive.
ehsim::PvSource pv_source_from_trace(
    std::shared_ptr<const pns::PiecewiseLinear> trace,
    ehsim::PvSource::Mode mode) {
  auto source = pv_source_from_sample(
      [trace, hint = std::size_t{0}](double t) mutable {
        return trace->eval_hinted(t, hint);
      },
      mode);
  source.set_irradiance_hold(
      [trace = std::move(trace), hint = std::size_t{0}](double t) mutable {
        return trace->flat_until_hinted(t, hint);
      });
  return source;
}

trace::WeatherCondition effective_condition(const ScenarioSpec& spec,
                                            const ParamMap& params) {
  const std::string* name = params.find("weather");
  if (!name) return spec.condition;
  const auto parsed = trace::weather_condition_from_string(*name);
  if (!parsed) {
    std::string msg = "param 'weather': unknown condition '" + *name +
                      "' (valid:";
    for (auto c : trace::all_weather_conditions())
      msg += std::string(" ") + trace::to_string(c);
    msg += ")";
    throw ParamError(msg);
  }
  return *parsed;
}

/// Composes a worker-cache key from synthesis parameters. Doubles go
/// through shortest_double (via ParamMap::set_double) so distinct values
/// can never collide on a formatting round-off.
std::string asset_key(std::initializer_list<std::pair<const char*, double>>
                          numbers,
                      const std::string& prefix) {
  ParamMap key;
  for (const auto& [name, value] : numbers) key.set_double(name, value);
  return prefix + ":" + key.serialize();
}

ehsim::PvSource make_solar(const ScenarioSpec& spec, const ParamMap& params,
                           ScenarioAssets& assets) {
  const trace::WeatherCondition condition = effective_condition(spec, params);
  // The weather trace is the expensive part (tens of thousands of PRNG
  // knots); every row of an expansion that shares
  // (condition, window, dt, seed) shares one immutable instance. The
  // seed rides in the prefix as its exact decimal form -- a double
  // round-trip would collide distinct seeds above 2^53.
  auto trace = assets.trace(
      asset_key({{"t0", spec.t_start},
                 {"t1", spec.t_end},
                 {"dt", spec.trace_dt_s}},
                std::string("solar/") + trace::to_string(condition) +
                    "/seed=" + std::to_string(spec.seed)),
      [&] {
        return trace::synthesize_irradiance(
            sim::paper_clear_sky(), condition, spec.t_start - 60.0,
            spec.t_end + 60.0, spec.trace_dt_s, spec.seed);
      });
  return pv_source_from_trace(std::move(trace), spec.pv_mode);
}

ehsim::PvSource make_shadow(const ScenarioSpec& spec, const ParamMap& params,
                            ScenarioAssets& /*assets*/) {
  ShadowingSpec sh = spec.shadow;
  sh.t_event_s = params.get_double("t_event", sh.t_event_s);
  sh.t_fall_s = params.get_double("fall", sh.t_fall_s);
  sh.hold_s = params.get_double("hold", sh.hold_s);
  sh.t_rise_s = params.get_double("rise", sh.t_rise_s);
  sh.depth = params.get_double("depth", sh.depth);
  sh.peak_wm2 = params.get_double("peak", sh.peak_wm2);
  // Shadow times are offsets from t_start (see ShadowingSpec). The trace
  // is a handful of knots -- not worth caching -- but its flat stretches
  // (full sun before/after, the occluded hold) are exactly what coasting
  // wants declared.
  auto shade = std::make_shared<const pns::PiecewiseLinear>(
      trace::shadowing_event(spec.t_start, spec.t_end,
                             spec.t_start + sh.t_event_s, sh.t_fall_s,
                             sh.hold_s, sh.t_rise_s, sh.depth));
  // Multiply at evaluation time (not via PiecewiseLinear::scaled): the
  // paper benches were recorded with this exact expression and
  // peak * lerp(y0, y1) and lerp(peak*y0, peak*y1) differ in the last
  // bits.
  auto source = pv_source_from_sample(
      [shade, peak = sh.peak_wm2, hint = std::size_t{0}](double t) mutable {
        return peak * shade->eval_hinted(t, hint);
      },
      spec.pv_mode);
  source.set_irradiance_hold(
      [shade = std::move(shade)](double t) { return shade->flat_until(t); });
  return source;
}

ehsim::PvSource make_trace(const ScenarioSpec& spec, const ParamMap& params,
                           ScenarioAssets& assets) {
  const std::string file = params.get_string("file", "");
  if (file.empty())
    throw ParamError("source 'trace': missing required param 'file' "
                     "(two-column t,W/m^2 CSV)");
  const double scale = params.get_double("scale", 1.0);
  // Cached per worker: a sweep (and a sweepd worker, for its whole
  // session) treats the file as immutable, so rows sharing (file, scale)
  // share one parsed trace.
  auto irradiance =
      assets.trace(asset_key({{"scale", scale}}, "tracefile/" + file), [&] {
        pns::PiecewiseLinear loaded = trace::load_trace_csv(file);
        return scale != 1.0 ? loaded.scaled(scale) : loaded;
      });
  return pv_source_from_trace(std::move(irradiance), spec.pv_mode);
}

ehsim::PvSource make_flicker(const ScenarioSpec& spec,
                             const ParamMap& params,
                             ScenarioAssets& assets) {
  trace::FlickerParams p;
  p.period_s = params.get_double("period", p.period_s);
  p.duty = params.get_double("duty", p.duty);
  p.depth = params.get_double("depth", p.depth);
  p.ramp_s = params.get_double("ramp", p.ramp_s);
  p.phase_s = params.get_double("phase", p.phase_s);
  if (p.period_s <= 0.0)
    throw ParamError("param 'period': must be > 0");
  if (p.duty <= 0.0 || p.duty >= 1.0)
    throw ParamError("param 'duty': must be in (0, 1)");
  if (p.depth < 0.0 || p.depth > 1.0)
    throw ParamError("param 'depth': must be in [0, 1]");
  if (p.ramp_s < 0.0) throw ParamError("param 'ramp': must be >= 0");
  // Same 60 s margin and dt grid as the solar weather synthesis; the
  // wave is deterministic in (params, window, dt), so rows sharing those
  // share the trace.
  auto trace = assets.trace(
      asset_key({{"t0", spec.t_start},
                 {"t1", spec.t_end},
                 {"dt", spec.trace_dt_s},
                 {"period", p.period_s},
                 {"duty", p.duty},
                 {"depth", p.depth},
                 {"ramp", p.ramp_s},
                 {"phase", p.phase_s}},
                "flicker"),
      [&] {
        return trace::synthesize_flicker_irradiance(
            sim::paper_clear_sky(), p, spec.t_start - 60.0,
            spec.t_end + 60.0, spec.trace_dt_s);
      });
  return pv_source_from_trace(std::move(trace), spec.pv_mode);
}

}  // namespace

void SourceAxis::register_builtins(SourceRegistry& registry) {
  registry.add(SourceEntry{
      "solar",
      "clear-sky envelope x seeded stochastic weather",
      {
          {"weather", "string", "full-sun",
           "condition preset: full-sun, partial-sun, cloud or hail "
           "(overrides the spec/axis condition)"},
      },
      /*solar_defaults=*/true,
      /*uses_condition=*/true,
      [](const ScenarioSpec& spec) {
        const std::string* name = spec.source.params.find("weather");
        return name ? *name : std::string(trace::to_string(spec.condition));
      },
      make_solar,
  });

  registry.add(SourceEntry{
      "shadow",
      "deterministic shadowing event (Fig. 6)",
      {
          {"t_event", "double", "2", "event onset after t_start (s)"},
          {"fall", "double", "0.4", "collapse ramp duration (s)"},
          {"hold", "double", "3.2", "occluded hold duration (s)"},
          {"rise", "double", "0.4", "recovery ramp duration (s)"},
          {"depth", "double", "0.4", "transmittance floor in the shadow"},
          {"peak", "double", "1000", "irradiance outside the shadow (W/m^2)"},
      },
      /*solar_defaults=*/false,
      /*uses_condition=*/false,
      [](const ScenarioSpec&) { return std::string("shadowing"); },
      make_shadow,
  });

  registry.add(SourceEntry{
      "trace",
      "measured irradiance trace from a two-column CSV",
      {
          {"file", "string", "", "path to the t,W/m^2 CSV (required)"},
          {"scale", "double", "1", "multiplier applied to every sample"},
      },
      /*solar_defaults=*/true,
      /*uses_condition=*/false,
      [](const ScenarioSpec&) { return std::string("trace"); },
      make_trace,
  });

  registry.add(SourceEntry{
      "flicker",
      "synthetic periodic cloud flicker over the clear-sky envelope",
      {
          {"period", "double", "60", "full cycle length (s)"},
          {"duty", "double", "0.5", "occluded fraction of the cycle"},
          {"depth", "double", "0.3", "transmittance floor while occluded"},
          {"ramp", "double", "2", "edge ramp duration (s)"},
          {"phase", "double", "0", "pattern shift (s)"},
      },
      /*solar_defaults=*/true,
      /*uses_condition=*/false,
      [](const ScenarioSpec&) { return std::string("flicker"); },
      make_flicker,
  });
}

}  // namespace pns::sweep
