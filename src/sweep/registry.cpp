#include "sweep/registry.hpp"

#include <stdexcept>
#include <utility>

namespace pns::sweep {

template <class Axis>
Registry<Axis>& Registry<Axis>::instance() {
  static Registry* registry = [] {
    auto* r = new Registry();
    Axis::register_builtins(*r);
    return r;
  }();
  return *registry;
}

template <class Axis>
void Registry<Axis>::add(Entry entry) {
  if (find(entry.kind))
    throw std::invalid_argument(std::string(Axis::noun) +
                                " kind already registered: " + entry.kind);
  entries_.push_back(std::move(entry));
}

template <class Axis>
void Registry<Axis>::alias(std::string retired, std::string kind) {
  if (find(retired))
    throw std::invalid_argument(std::string(Axis::noun) +
                                " kind already registered: " + retired);
  aliases_.emplace_back(std::move(retired), std::move(kind));
}

template <class Axis>
auto Registry<Axis>::find(const std::string& kind) const -> const Entry* {
  for (const auto& e : entries_)
    if (e.kind == kind) return &e;
  for (const auto& [retired, current] : aliases_)
    if (retired == kind) return find(current);
  return nullptr;
}

template <class Axis>
auto Registry<Axis>::require(const std::string& kind) const
    -> const Entry& {
  if (const Entry* e = find(kind)) return *e;
  std::string msg =
      std::string("unknown ") + Axis::noun + " '" + kind + "' (valid:";
  for (const auto& e : entries_) msg += " " + e.kind;
  throw ParamError(msg + ")");
}

template <class Axis>
auto Registry<Axis>::entry_for(const KindSpec<Axis>& spec) const
    -> const Entry& {
  const Entry& entry = require(spec.kind);
  spec.params.validate_keys(entry.params, std::string(Axis::noun) + " '" +
                                              spec.kind + "'");
  return entry;
}

template <class Axis>
KindSpec<Axis> KindSpec<Axis>::parse(std::string_view text) {
  const SpecParts parts = split_spec_string(text);
  KindSpec spec{parts.kind, ParamMap::parse(parts.params)};
  spec.params.validate_types(Registry<Axis>::instance().entry_for(spec).params);
  return spec;
}

template class Registry<ControlAxis>;
template class Registry<SourceAxis>;
template class Registry<IntegratorAxis>;
template class Registry<PlatformAxis>;
template ControlSpec ControlSpec::parse(std::string_view);
template SourceSpec SourceSpec::parse(std::string_view);
template IntegratorSpec IntegratorSpec::parse(std::string_view);
template PlatformSpec PlatformSpec::parse(std::string_view);

soc::Platform resolve_platform(const PlatformSpec& platform) {
  return PlatformRegistry::instance().entry_for(platform).make(
      platform.params);
}

sim::ControlSelection resolve_control(const ControlSpec& control,
                                      const ScenarioSpec& spec) {
  return ControlRegistry::instance().entry_for(control).make(
      spec, control.params);
}

ehsim::PvSource resolve_source(const ScenarioSpec& spec,
                               ScenarioAssets& assets) {
  return SourceRegistry::instance().entry_for(spec.source).make(
      spec, spec.source.params, assets);
}

void resolve_integrator(const ScenarioSpec& spec, sim::SimConfig& cfg) {
  IntegratorRegistry::instance().entry_for(spec.integrator).apply(
      spec, spec.integrator.params, cfg);
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

}  // namespace pns::sweep
