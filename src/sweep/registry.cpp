#include "sweep/registry.hpp"

#include <stdexcept>
#include <utility>

namespace pns::sweep {

namespace {

template <typename Entry>
const Entry* find_entry(const std::vector<Entry>& entries,
                        const std::string& kind) {
  for (const auto& e : entries)
    if (e.kind == kind) return &e;
  return nullptr;
}

template <typename Entry>
[[noreturn]] void unknown_kind(const char* what,
                               const std::vector<Entry>& entries,
                               const std::string& kind) {
  std::string msg = std::string("unknown ") + what + " '" + kind +
                    "' (valid:";
  for (const auto& e : entries) msg += " " + e.kind;
  msg += ")";
  throw ParamError(msg);
}

}  // namespace

ControlRegistry& ControlRegistry::instance() {
  static ControlRegistry* registry = [] {
    auto* r = new ControlRegistry();
    register_builtin_controls(*r);
    return r;
  }();
  return *registry;
}

void ControlRegistry::add(ControlEntry entry) {
  if (find(entry.kind))
    throw std::invalid_argument("control kind already registered: " +
                                entry.kind);
  entries_.push_back(std::move(entry));
}

const ControlEntry* ControlRegistry::find(const std::string& kind) const {
  return find_entry(entries_, kind);
}

const ControlEntry& ControlRegistry::require(const std::string& kind) const {
  const ControlEntry* e = find(kind);
  if (!e) unknown_kind("control", entries_, kind);
  return *e;
}

SourceRegistry& SourceRegistry::instance() {
  static SourceRegistry* registry = [] {
    auto* r = new SourceRegistry();
    register_builtin_sources(*r);
    return r;
  }();
  return *registry;
}

IntegratorRegistry& IntegratorRegistry::instance() {
  static IntegratorRegistry* registry = [] {
    auto* r = new IntegratorRegistry();
    register_builtin_integrators(*r);
    return r;
  }();
  return *registry;
}

void IntegratorRegistry::add(IntegratorEntry entry) {
  if (find(entry.kind))
    throw std::invalid_argument("integrator kind already registered: " +
                                entry.kind);
  entries_.push_back(std::move(entry));
}

const IntegratorEntry* IntegratorRegistry::find(
    const std::string& kind) const {
  // "rk23batch" named the unpacked lockstep kind before the two round
  // drivers merged; it resolves to rk23simd under its own spelling, so
  // its spec strings, command lines and journal identities keep working.
  return find_entry(entries_, kind == "rk23batch" ? "rk23simd" : kind);
}

const IntegratorEntry& IntegratorRegistry::require(
    const std::string& kind) const {
  const IntegratorEntry* e = find(kind);
  if (!e) unknown_kind("integrator", entries_, kind);
  return *e;
}

PlatformRegistry& PlatformRegistry::instance() {
  static PlatformRegistry* registry = [] {
    auto* r = new PlatformRegistry();
    register_builtin_platforms(*r);
    return r;
  }();
  return *registry;
}

void PlatformRegistry::add(PlatformEntry entry) {
  if (find(entry.kind))
    throw std::invalid_argument("platform kind already registered: " +
                                entry.kind);
  entries_.push_back(std::move(entry));
}

const PlatformEntry* PlatformRegistry::find(const std::string& kind) const {
  return find_entry(entries_, kind);
}

const PlatformEntry& PlatformRegistry::require(
    const std::string& kind) const {
  const PlatformEntry* e = find(kind);
  if (!e) unknown_kind("platform", entries_, kind);
  return *e;
}

void SourceRegistry::add(SourceEntry entry) {
  if (find(entry.kind))
    throw std::invalid_argument("source kind already registered: " +
                                entry.kind);
  entries_.push_back(std::move(entry));
}

const SourceEntry* SourceRegistry::find(const std::string& kind) const {
  return find_entry(entries_, kind);
}

const SourceEntry& SourceRegistry::require(const std::string& kind) const {
  const SourceEntry* e = find(kind);
  if (!e) unknown_kind("source", entries_, kind);
  return *e;
}

soc::Platform resolve_platform(const PlatformSpec& platform) {
  const PlatformEntry& entry =
      PlatformRegistry::instance().require(platform.kind);
  platform.params.validate_keys(entry.params,
                                "platform '" + platform.kind + "'");
  return entry.make(platform.params);
}

sim::ControlSelection resolve_control(const ControlSpec& control,
                                      const ScenarioSpec& spec) {
  const ControlEntry& entry =
      ControlRegistry::instance().require(control.kind);
  control.params.validate_keys(entry.params,
                               "control '" + control.kind + "'");
  return entry.make(spec, control.params);
}

ehsim::PvSource resolve_source(const ScenarioSpec& spec,
                               ScenarioAssets& assets) {
  const SourceEntry& entry =
      SourceRegistry::instance().require(spec.source.kind);
  spec.source.params.validate_keys(entry.params,
                                   "source '" + spec.source.kind + "'");
  return entry.make(spec, spec.source.params, assets);
}

ehsim::PvSource resolve_source(const ScenarioSpec& spec) {
  ScenarioAssets assets;
  return resolve_source(spec, assets);
}

void resolve_integrator(const ScenarioSpec& spec, sim::SimConfig& cfg) {
  const IntegratorEntry& entry =
      IntegratorRegistry::instance().require(spec.integrator.kind);
  spec.integrator.params.validate_keys(
      entry.params, "integrator '" + spec.integrator.kind + "'");
  entry.apply(spec, spec.integrator.params, cfg);
}

std::string source_condition_label(const ScenarioSpec& spec) {
  const SourceEntry* entry =
      SourceRegistry::instance().find(spec.source.kind);
  return entry ? entry->condition_label(spec) : spec.source.kind;
}

bool source_uses_condition(const std::string& kind) {
  const SourceEntry* entry = SourceRegistry::instance().find(kind);
  return entry ? entry->uses_condition : true;
}

// ------------------------------------------------- spec-string parsing
// (Defined here rather than in scenario.cpp because parsing validates
// against the registries.)

SourceSpec SourceSpec::parse(std::string_view text) {
  const SpecParts parts = split_spec_string(text);
  SourceSpec spec;
  spec.kind = parts.kind;
  spec.params = ParamMap::parse(parts.params);
  const SourceEntry& entry = SourceRegistry::instance().require(spec.kind);
  spec.params.validate_keys(entry.params, "source '" + spec.kind + "'");
  spec.params.validate_types(entry.params);
  return spec;
}

ControlSpec ControlSpec::parse(std::string_view text) {
  const SpecParts parts = split_spec_string(text);
  ControlSpec spec;
  spec.kind = parts.kind;
  spec.params = ParamMap::parse(parts.params);
  const ControlEntry& entry = ControlRegistry::instance().require(spec.kind);
  spec.params.validate_keys(entry.params, "control '" + spec.kind + "'");
  spec.params.validate_types(entry.params);
  return spec;
}

IntegratorSpec IntegratorSpec::parse(std::string_view text) {
  const SpecParts parts = split_spec_string(text);
  IntegratorSpec spec;
  spec.kind = parts.kind;
  spec.params = ParamMap::parse(parts.params);
  const IntegratorEntry& entry =
      IntegratorRegistry::instance().require(spec.kind);
  spec.params.validate_keys(entry.params,
                            "integrator '" + spec.kind + "'");
  spec.params.validate_types(entry.params);
  return spec;
}

PlatformSpec PlatformSpec::parse(std::string_view text) {
  const SpecParts parts = split_spec_string(text);
  PlatformSpec spec;
  spec.kind = parts.kind;
  spec.params = ParamMap::parse(parts.params);
  const PlatformEntry& entry =
      PlatformRegistry::instance().require(spec.kind);
  spec.params.validate_keys(entry.params, "platform '" + spec.kind + "'");
  spec.params.validate_types(entry.params);
  return spec;
}

}  // namespace pns::sweep
