#include "sweepd/job.hpp"

#include <algorithm>
#include <cmath>

#include "sweep/presets.hpp"
#include "sweep/registry.hpp"

namespace pns::sweepd {

namespace {

const char* pv_mode_name(ehsim::PvSource::Mode mode) {
  return mode == ehsim::PvSource::Mode::kExact ? "exact" : "tabulated";
}

ehsim::PvSource::Mode pv_mode_from_name(const std::string& name) {
  if (name == "exact") return ehsim::PvSource::Mode::kExact;
  if (name == "tabulated") return ehsim::PvSource::Mode::kTabulated;
  throw JobError("unknown pv mode '" + name +
                 "' (valid: exact, tabulated)");
}

}  // namespace

std::string JobSpec::identity() const {
  std::string id = preset + "?minutes=" + shortest_double(minutes) +
                   "&pv=" + pv_mode_name(pv_mode);
  for (const auto& c : controls) id += "&control=" + c.spec_string();
  for (const auto& s : sources) id += "&source=" + s.spec_string();
  // The default integrator is omitted (it computes identically whether
  // spelled out or not), so pre-existing journal identities stay valid.
  // Execution-only keys (IntegratorEntry::execution_only, e.g.
  // rk23simd's "width") select a scheduling strategy, not numerics:
  // they are stripped so journals written under different widths stay
  // interchangeable on resume.
  sweep::IntegratorSpec canonical{integrator.kind, {}};
  if (const sweep::IntegratorEntry* entry =
          sweep::IntegratorRegistry::instance().find(integrator.kind)) {
    for (const auto& [key, value] : integrator.params.entries()) {
      if (std::find(entry->execution_only.begin(),
                    entry->execution_only.end(),
                    key) == entry->execution_only.end())
        canonical.params.set(key, value);
    }
  } else {
    canonical.params = integrator.params;
  }
  if (canonical != sweep::IntegratorSpec{})
    id += "&integrator=" + canonical.spec_string();
  // The default "mono" platform is likewise omitted, keeping every
  // pre-existing journal identity valid; any other topology changes the
  // computed bytes, so its full spec string pins the identity.
  if (platform != sweep::PlatformSpec{})
    id += "&platform=" + platform.spec_string();
  return id;
}

std::vector<sweep::ScenarioSpec> JobSpec::expand() const {
  const sweep::SweepPreset* p = sweep::find_sweep_preset(preset);
  if (!p) {
    std::string msg = "unknown sweep preset '" + preset + "' (valid:";
    for (const auto& known : sweep::sweep_presets())
      msg += " " + known.name;
    msg += ")";
    throw JobError(msg);
  }
  // Every scenario of a non-positive window fails its precondition, so
  // such a job is refused whole -- for local runs and submissions alike.
  if (!std::isfinite(minutes) || minutes <= 0.0)
    throw JobError("invalid minutes " + shortest_double(minutes) +
                   ": the simulated window must be finite and > 0");
  sweep::SweepSpec sw = p->make(minutes);
  if (!controls.empty()) sw.controls = controls;
  if (!sources.empty()) sw.sources = sources;
  sw.base.pv_mode = pv_mode;
  sw.base.integrator = integrator;
  // Carried as the unresolved spec: every worker resolves it through
  // its own registry inside run_scenario, so daemon and workers expand
  // byte-identically without shipping a compiled Platform.
  sw.base.platform_spec = platform;
  return sw.expand();
}

void JobSpec::write_json(JsonWriter& w) const {
  // Spec strings (not exploded param objects): round-trippable through
  // the same parse() the CLI flags use, and identical to what
  // identity() pins.
  w.begin_object();
  w.kv("preset", preset);
  w.kv("minutes", minutes);
  w.kv("pv", pv_mode_name(pv_mode));
  w.key("controls");
  w.begin_array();
  for (const auto& c : controls) w.value(c.spec_string());
  w.end_array();
  w.key("sources");
  w.begin_array();
  for (const auto& s : sources) w.value(s.spec_string());
  w.end_array();
  w.kv("integrator", integrator.spec_string());
  w.kv("platform", platform.spec_string());
  w.end_object();
}

JobSpec JobSpec::from_json(const JsonValue& v) {
  JobSpec spec;
  try {
    spec.preset = v.at("preset").as_string();
    spec.minutes = v.at("minutes").as_double();
    spec.pv_mode = pv_mode_from_name(v.at("pv").as_string());
    for (const JsonValue& c : v.at("controls").items())
      spec.controls.push_back(sweep::ControlSpec::parse(c.as_string()));
    for (const JsonValue& s : v.at("sources").items())
      spec.sources.push_back(sweep::SourceSpec::parse(s.as_string()));
    spec.integrator =
        sweep::IntegratorSpec::parse(v.at("integrator").as_string());
    // Absent on the wire from pre-platform peers: default to "mono",
    // which expands identically to a job that never heard of platforms.
    if (const JsonValue* platform = v.find("platform"))
      spec.platform = sweep::PlatformSpec::parse(platform->as_string());
  } catch (const JsonError& e) {
    throw JobError(std::string("malformed job spec: ") + e.what());
  } catch (const ParamError& e) {
    throw JobError(std::string("invalid job spec: ") + e.what());
  }
  return spec;
}

}  // namespace pns::sweepd
