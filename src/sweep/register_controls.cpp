// Built-in control kinds.
//
// Two provider domains contribute here: core/ supplies the paper's
// power-neutral controller ("pns", tunables decoded by
// ctl::controller_config_from_params) and the fixed-OPP baseline
// ("static"); governors/ supplies every stock cpufreq governor as a
// "gov:<name>" kind whose parameters flow through
// gov::make_governor's ParamMap. A new policy registers the same way:
// ControlRegistry::instance().add({kind, summary, params, factory}).
#include <memory>
#include <string>
#include <utility>

#include "governors/multi_domain.hpp"
#include "governors/registry.hpp"
#include "sweep/registry.hpp"
#include "util/contracts.hpp"

namespace pns::sweep {

namespace {

sim::ControlSelection make_static_control(const ScenarioSpec& spec,
                                          const ParamMap& params) {
  // Bare "static" pins nothing: the engine keeps the spec's initial
  // operating point (or the platform's lowest when unset), matching the
  // historical ControlSpec behaviour with no static_opp.
  if (params.empty()) return sim::ControlSelection::pinned(std::nullopt);

  const soc::Platform& platform = spec.platform;
  soc::OperatingPoint opp =
      spec.initial_opp.value_or(platform.lowest_opp());
  if (params.has("opp")) {
    const std::uint64_t index = params.get_uint("opp", 0);
    if (index > platform.opps.max_index())
      throw ParamError("param 'opp': ladder index " + std::to_string(index) +
                       " out of range [0, " +
                       std::to_string(platform.opps.max_index()) + "]");
    opp.freq_index = static_cast<std::size_t>(index);
  }
  opp.cores.n_little = params.get_int32("little", opp.cores.n_little);
  opp.cores.n_big = params.get_int32("big", opp.cores.n_big);
  if (!opp.cores.within(platform.min_cores, platform.max_cores))
    throw ParamError("static core config " + opp.cores.to_string() +
                     " outside the platform's range [" +
                     platform.min_cores.to_string() + ", " +
                     platform.max_cores.to_string() + "]");
  return sim::ControlSelection::pinned(opp);
}

}  // namespace

void ControlAxis::register_builtins(ControlRegistry& registry) {
  registry.add(ControlEntry{
      "pns",
      "power-neutral controller (the paper's proposed scheme)",
      ctl::controller_params(),
      [](const ScenarioSpec&, const ParamMap& params) {
        return sim::ControlSelection::power_neutral(
            ctl::controller_config_from_params(params));
      },
  });

  registry.add(ControlEntry{
      "static",
      "fixed operating point (no control at all)",
      {
          {"opp", "uint", "", "frequency-ladder index to pin"},
          {"little", "int", "", "online LITTLE cores"},
          {"big", "int", "", "online big cores"},
      },
      make_static_control,
  });

  for (const std::string& name : gov::available_governors()) {
    registry.add(ControlEntry{
        "gov:" + name,
        "Linux '" + name + "' cpufreq governor",
        gov::governor_params(name),
        [name](const ScenarioSpec& spec, const ParamMap& params) {
          return sim::ControlSelection::governed(
              gov::make_governor(name, spec.platform, params));
        },
    });
  }

  // Domain-aware variants: one inner stock governor per domain of a
  // compiled multi-domain platform, demands arbitrated onto the joint
  // ladder (governors/multi_domain.hpp). Requires a non-"mono"
  // --platform; rejecting at resolve time keeps the error on the row.
  for (const std::string& name : gov::available_governors()) {
    registry.add(ControlEntry{
        "mdgov:" + name,
        "per-domain '" + name + "' governors, demand-arbitrated",
        gov::MultiDomainGovernor::params_for(name),
        [name](const ScenarioSpec& spec, const ParamMap& params) {
          if (!spec.platform.domains)
            throw ParamError(
                "control 'mdgov:" + name +
                "' requires a multi-domain --platform (e.g. biglittle); "
                "the default mono platform has a single domain");
          return sim::ControlSelection::governed(
              std::make_unique<gov::MultiDomainGovernor>(
                  name, spec.platform, params));
        },
    });
  }
}

}  // namespace pns::sweep
