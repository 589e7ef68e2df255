#include "sweep/scenario.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "ehsim/sources.hpp"
#include "sim/batch_engine.hpp"
#include "sweep/assets.hpp"
#include "sweep/registry.hpp"
#include "util/contracts.hpp"

namespace pns::sweep {

template <>
std::string ControlSpec::governor_name() const {
  constexpr std::string_view prefix = "gov:";
  if (kind.size() <= prefix.size() || kind.compare(0, prefix.size(), prefix))
    return {};
  return kind.substr(prefix.size());
}

template <>
ControlSpec ControlSpec::power_neutral(ctl::ControllerConfig config) {
  return {"pns", ctl::controller_config_to_params(config)};
}

template <>
ControlSpec ControlSpec::linux_governor(std::string name) {
  return {"gov:" + std::move(name), {}};
}

template <>
ControlSpec ControlSpec::static_opp_point(soc::OperatingPoint opp) {
  ControlSpec c{"static", {}};
  c.params.set_uint("opp", opp.freq_index);
  c.params.set_int("little", opp.cores.n_little);
  c.params.set_int("big", opp.cores.n_big);
  return c;
}

sim::SimConfig make_sim_config(const ScenarioSpec& spec) {
  sim::SimConfig cfg;
  cfg.t_start = spec.t_start;
  cfg.t_end = spec.t_end;
  cfg.capacitance_f = spec.capacitance_f;
  cfg.band_fraction = spec.band_fraction;
  cfg.vc0 = spec.vc0;
  // Daylight scenarios regulate around the array MPP as in the paper;
  // shadowing scenarios disable the band (Fig. 6 reports raw VC). An
  // unknown source kind defaults solar-style here and fails with the
  // registry's diagnostics in run_scenario.
  const SourceEntry* entry = SourceRegistry::instance().find(spec.source.kind);
  const double default_target = entry && !entry->solar_defaults ? 0.0 : 5.3;
  cfg.v_target = spec.v_target.value_or(default_target);
  cfg.enable_reboot = spec.enable_reboot;
  cfg.record_series = spec.record_series;
  cfg.record_interval_s = spec.record_interval_s;
  cfg.initial_opp = spec.initial_opp;
  // The integrator kind rewrites the numerics last, so its overrides win
  // over the scenario defaults ("rk23" with no params is the identity).
  resolve_integrator(spec, cfg);
  return cfg;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One resolved scenario: everything its engine references that the
/// caller must keep alive while it runs.
struct Lane {
  /// Spec copy carrying a compiled multi-domain platform; null on the
  /// legacy "mono" path. Heap-allocated so the engine's Platform pointer
  /// stays stable while lanes move.
  std::unique_ptr<ScenarioSpec> resolved;
  /// Per-lane source: each owns its own solve cache and trace-hint
  /// closures; the trace itself is shared immutably through `assets`.
  std::unique_ptr<ehsim::PvSource> source;
  sim::EngineBundle bundle;
};

/// Resolves `in` into a ready-to-run engine (the one lane-setup path of
/// run_scenario and run_scenarios_batched). Throws on a malformed spec.
Lane build_lane(const ScenarioSpec& in, ScenarioAssets& assets) {
  Lane lane;
  // A non-default platform spec compiles into spec.platform *before*
  // anything else: static controls validate their OPP against the
  // resolved ladder and governors size their state from it. The default
  // ("mono", no params) takes the untouched legacy path.
  if (in.platform_spec != PlatformSpec{}) {
    lane.resolved = std::make_unique<ScenarioSpec>(in);
    lane.resolved->platform = resolve_platform(in.platform_spec);
    lane.resolved->platform_spec = PlatformSpec{};
  }
  const ScenarioSpec& spec = lane.resolved ? *lane.resolved : in;
  PNS_EXPECTS(spec.t_end > spec.t_start);
  PNS_EXPECTS(spec.capacitance_f > 0.0);
  const SourceEntry& source_entry =
      SourceRegistry::instance().require(spec.source.kind);
  // Resolve the control first: a bad control spec should not cost a
  // weather-trace synthesis.
  sim::ControlSelection control = resolve_control(spec.control, spec);
  lane.source = std::make_unique<ehsim::PvSource>(resolve_source(spec, assets));
  lane.bundle = sim::make_pv_engine(spec.platform, *lane.source,
                                    std::move(control), make_sim_config(spec),
                                    source_entry.solar_defaults);
  return lane;
}

}  // namespace

sim::SimResult run_scenario(const ScenarioSpec& spec,
                            ScenarioAssets& assets) {
  return build_lane(spec, assets).bundle.engine->run();
}

sim::SimResult run_scenario(const ScenarioSpec& spec) {
  ScenarioAssets assets;
  return run_scenario(spec, assets);
}

std::size_t batch_width(const ScenarioSpec& spec) {
  const IntegratorEntry* entry =
      IntegratorRegistry::instance().find(spec.integrator.kind);
  if (entry == nullptr || !entry->batch_capable) return 0;
  try {
    const std::uint64_t width = spec.integrator.params.get_uint("width", 8);
    return width == 0 ? 1 : static_cast<std::size_t>(width);
  } catch (const ParamError&) {
    // A malformed width fails spec parsing long before a sweep runs;
    // a programmatically built spec that smuggled one in just loses
    // batching (the apply hook ignores the key either way).
    return 1;
  }
}

bool batch_compatible(const ScenarioSpec& a, const ScenarioSpec& b) {
  // Rows with different *controls* share a batch safely: every lane owns
  // its full scalar state (engine, controller, source) and lockstep only
  // interleaves execution, so mixing control families cannot couple lanes
  // (held to byte-equality by test_batch_parity's
  // MixedControlFamiliesShareABatchSafely). Not requiring equal controls
  // lets a preset like table2 -- controls x seeds within one condition --
  // form full-width batches instead of per-control slivers. The partition
  // stays a pure function of the spec list (runner.cpp), so outputs stay
  // independent of thread count.
  return a.integrator == b.integrator &&
         a.platform_spec == b.platform_spec &&
         a.source.spec_string() == b.source.spec_string() &&
         a.condition == b.condition && a.pv_mode == b.pv_mode;
}

void run_scenario_outcome(const ScenarioSpec& spec, ScenarioAssets& assets,
                          SweepOutcome& out) {
  const auto t0 = Clock::now();
  out.spec = spec;
  out.ok = false;
  out.error.clear();
  try {
    out.result = run_scenario(spec, assets);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  out.wall_s = seconds_since(t0);
}

void run_scenarios_batched(const ScenarioSpec* specs, std::size_t count,
                           ScenarioAssets& assets,
                           const BatchedOutcomeSink& on_outcome) {
  // Lanes are optional so each can be destroyed (members in reverse
  // order: engine before source before spec) the moment it is
  // delivered; an engaged lane is one not yet delivered.
  std::vector<std::optional<Lane>> lanes;
  std::vector<std::size_t> spec_index;
  std::vector<double> build_s;  // per lane
  lanes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    std::string error;
    try {
      lanes.push_back(build_lane(specs[i], assets));
      spec_index.push_back(i);
      build_s.push_back(seconds_since(t0));
      continue;
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    on_outcome(i, SweepOutcome{specs[i], {}, false, std::move(error),
                               seconds_since(t0)});
  }
  if (lanes.empty()) return;

  bool in_sink = false;  // an exception now comes from on_outcome
  bool batch_failed = false;
  try {
    std::vector<sim::SimEngine*> engines;
    engines.reserve(lanes.size());
    for (const auto& lane : lanes)
      engines.push_back(lane->bundle.engine.get());
    // All specs of one work unit share the integrator kind (the runner
    // only groups batch_compatible rows), so the first lane's entry
    // decides whether the lockstep rounds run data-parallel.
    sim::BatchEngineOptions batch_opt;
    const IntegratorEntry* entry = IntegratorRegistry::instance().find(
        specs[spec_index.front()].integrator.kind);
    batch_opt.simd = entry != nullptr && entry->batch_simd;
    sim::BatchEngine batch(std::move(engines), batch_opt);
    batch.run([&](std::size_t k, sim::SimResult&& result, double cost_s) {
      const std::size_t i = spec_index[k];
      in_sink = true;
      on_outcome(i, SweepOutcome{specs[i], std::move(result), true, {},
                                 build_s[k] + cost_s});
      in_sink = false;
      lanes[k].reset();  // the engine is done with it: release it now
    });
  } catch (...) {
    if (in_sink) throw;
    batch_failed = true;
  }
  if (batch_failed) {
    // A mid-run throw poisons the lanes still running (a half-run engine
    // cannot be resumed), so rerun each undelivered row scalar from
    // scratch: the healthy rows still complete and the diagnostic lands
    // on the failing row alone. Delivered rows are final.
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      if (!lanes[k]) continue;
      lanes[k].reset();
      const std::size_t i = spec_index[k];
      SweepOutcome out;
      run_scenario_outcome(specs[i], assets, out);
      on_outcome(i, std::move(out));
    }
  }
}

std::vector<SweepOutcome> run_scenarios_batched(const ScenarioSpec* specs,
                                                std::size_t count,
                                                ScenarioAssets& assets) {
  std::vector<SweepOutcome> outcomes(count);
  run_scenarios_batched(specs, count, assets,
                        [&](std::size_t i, SweepOutcome&& out) {
                          outcomes[i] = std::move(out);
                        });
  return outcomes;
}

namespace {

std::string fmt_mf(double farads) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%gmF", farads * 1e3);
  return buf;
}

/// Positionally disambiguates duplicate axis labels ("pns" twice for two
/// controller tunings) with a "#<index>" suffix.
void suffix_duplicates(std::vector<std::string>& labels) {
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::size_t dups = 0;
    for (std::size_t j = 0; j < labels.size(); ++j)
      dups += j != i && labels[j] == labels[i];
    if (dups > 0) {
      labels[i] += "#";
      labels[i] += std::to_string(i);
    }
  }
}

}  // namespace

std::size_t SweepSpec::size() const {
  auto axis = [](std::size_t n) { return n == 0 ? std::size_t{1} : n; };
  // The depth axis only means something for shadowing sources; ignoring
  // it otherwise keeps a reused spec from multiplying out identical
  // runs. With a sources axis in play the gate is per source, so the
  // product becomes a sum over the sources axis.
  const std::vector<SourceSpec> srcs =
      sources.empty() ? std::vector{base.source} : sources;
  std::size_t total = 0;
  for (const auto& src : srcs) {
    const std::size_t depth_axis =
        src.kind == "shadow" ? axis(shadow_depths.size()) : 1;
    const std::size_t cond_axis =
        source_uses_condition(src.kind) ? axis(conditions.size()) : 1;
    total += cond_axis * axis(controls.size()) *
             axis(capacitances_f.size()) * depth_axis * axis(seeds.size());
  }
  return total;
}

std::vector<ScenarioSpec> SweepSpec::expand() const {
  // Materialise every axis, substituting the base value for empty ones so
  // the nested product below stays uniform.
  const std::vector<SourceSpec> srcs =
      sources.empty() ? std::vector{base.source} : sources;
  const std::vector<trace::WeatherCondition> conds =
      conditions.empty() ? std::vector{base.condition} : conditions;
  const std::vector<ControlSpec> ctls =
      controls.empty() ? std::vector{base.control} : controls;
  const std::vector<double> caps =
      capacitances_f.empty() ? std::vector{base.capacitance_f}
                             : capacitances_f;
  // The depth and condition axes apply per source: only shadowing specs
  // multiply over depths, and only condition-reading kinds (solar) over
  // conditions -- an axis a source ignores would clone identical
  // scenarios under identical labels.
  auto depths_for = [&](const SourceSpec& src) {
    return src.kind == "shadow" && !shadow_depths.empty()
               ? shadow_depths
               : std::vector{base.shadow.depth};
  };
  auto conds_for = [&](const SourceSpec& src) {
    return source_uses_condition(src.kind) ? conds
                                           : std::vector{base.condition};
  };
  const std::vector<std::uint64_t> sds =
      seeds.empty() ? std::vector{base.seed} : seeds;

  // Controls that differ only in configuration (e.g. two controller
  // tunings) share a ControlSpec::label(); suffix duplicates with their
  // axis position so every expanded scenario keeps a unique label. Source
  // kinds get the same treatment (two "trace" sources with different
  // files).
  std::vector<std::string> ctl_labels;
  ctl_labels.reserve(ctls.size());
  for (const auto& c : ctls) ctl_labels.push_back(c.label());
  suffix_duplicates(ctl_labels);
  std::vector<std::string> src_suffixes(srcs.size());
  {
    std::vector<std::string> kinds;
    kinds.reserve(srcs.size());
    for (const auto& s : srcs) kinds.push_back(s.kind);
    suffix_duplicates(kinds);
    for (std::size_t i = 0; i < srcs.size(); ++i)
      if (kinds[i] != srcs[i].kind)
        src_suffixes[i] = kinds[i].substr(srcs[i].kind.size());
  }

  std::vector<ScenarioSpec> out;
  out.reserve(size());
  for (std::size_t si = 0; si < srcs.size(); ++si) {
    const std::vector<double> depths = depths_for(srcs[si]);
    for (const auto& cond : conds_for(srcs[si])) {
      for (std::size_t ci = 0; ci < ctls.size(); ++ci) {
        const auto& ctl = ctls[ci];
        for (double cap : caps) {
          for (double depth : depths) {
            for (std::uint64_t seed : sds) {
              ScenarioSpec s = base;
              s.source = srcs[si];
              s.condition = cond;
              s.control = ctl;
              s.capacitance_f = cap;
              s.shadow.depth = depth;
              s.seed = seed;
              // Compose a label from the axes that actually vary (always
              // include the control: it is the row identity in reports).
              std::string label = source_condition_label(s);
              label += src_suffixes[si];
              label += "/";
              label += ctl_labels[ci];
              if (s.source.kind == "shadow") {
                if (shadow_depths.size() > 1) {
                  char buf[32];
                  std::snprintf(buf, sizeof buf, "/depth=%g", depth);
                  label += buf;
                }
              }
              if (capacitances_f.size() > 1) {
                label += "/";
                label += fmt_mf(cap);
              }
              if (seeds.size() > 1) {
                label += "/seed=";
                label += std::to_string(seed);
              }
              if (base.label.empty()) {
                s.label = std::move(label);
              } else {
                s.label = base.label;
                s.label += "/";
                s.label += label;
              }
              out.push_back(std::move(s));
            }
          }
        }
      }
    }
  }
  PNS_ENSURES(out.size() == size());
  return out;
}

}  // namespace pns::sweep
