#include "governors/registry.hpp"

#include <stdexcept>

#include "util/json.hpp"

#include "governors/conservative.hpp"
#include "governors/interactive.hpp"
#include "governors/ondemand.hpp"
#include "governors/performance.hpp"
#include "governors/powersave.hpp"
#include "governors/userspace.hpp"

namespace pns::gov {

namespace {

/// One stock governor: its name, its spec-string parameters and the
/// factory that applies them over the defaults.
struct GovernorKind {
  const char* name;
  std::vector<pns::ParamInfo> params;
  std::unique_ptr<Governor> (*make)(const soc::Platform&,
                                    const pns::ParamMap&);
};

/// Factory of a governor without tunables.
template <class G>
std::unique_ptr<Governor> make_untuned(const soc::Platform& platform,
                                       const pns::ParamMap&) {
  return std::make_unique<G>(platform);
}

/// Every stock governor, in listing order (`pns_sweep list` prints the
/// gov:/mdgov: kinds in this order).
const std::vector<GovernorKind>& kinds() {
  static const std::vector<GovernorKind> table = [] {
    const OndemandParams od;
    const ConservativeParams cd;
    const InteractiveParams id;
    return std::vector<GovernorKind>{
        {"performance", {}, make_untuned<PerformanceGovernor>},
        {"powersave", {}, make_untuned<PowersaveGovernor>},
        {"ondemand",
         {
             {"period", "double", shortest_double(od.sampling_period_s),
              "sampling period (s)"},
             {"up_threshold", "double", shortest_double(od.up_threshold),
              "utilisation above which the max frequency is requested"},
             {"down_factor", "int", std::to_string(od.sampling_down_factor),
              "consecutive low samples before scaling down"},
         },
         [](const soc::Platform& platform,
            const pns::ParamMap& params) -> std::unique_ptr<Governor> {
           OndemandParams p;
           p.sampling_period_s =
               params.get_double("period", p.sampling_period_s);
           p.up_threshold = params.get_double("up_threshold", p.up_threshold);
           p.sampling_down_factor =
               params.get_int32("down_factor", p.sampling_down_factor);
           return std::make_unique<OndemandGovernor>(platform, p);
         }},
        {"conservative",
         {
             {"period", "double", shortest_double(cd.sampling_period_s),
              "sampling period (s)"},
             {"up_threshold", "double", shortest_double(cd.up_threshold),
              "utilisation above which the ladder steps up"},
             {"down_threshold", "double", shortest_double(cd.down_threshold),
              "utilisation below which the ladder steps down"},
             {"freq_step", "int", std::to_string(cd.freq_step),
              "ladder steps taken per decision"},
         },
         [](const soc::Platform& platform,
            const pns::ParamMap& params) -> std::unique_ptr<Governor> {
           ConservativeParams p;
           p.sampling_period_s =
               params.get_double("period", p.sampling_period_s);
           p.up_threshold = params.get_double("up_threshold", p.up_threshold);
           p.down_threshold =
               params.get_double("down_threshold", p.down_threshold);
           p.freq_step = params.get_int32("freq_step", p.freq_step);
           return std::make_unique<ConservativeGovernor>(platform, p);
         }},
        {"interactive",
         {
             {"period", "double", shortest_double(id.sampling_period_s),
              "sampling period (s)"},
             {"go_hispeed_load", "double", shortest_double(id.go_hispeed_load),
              "load that triggers the hispeed jump"},
             {"hispeed_fraction", "double",
              shortest_double(id.hispeed_fraction),
              "hispeed_freq as a fraction of f_max"},
             {"above_hispeed_delay", "double",
              shortest_double(id.above_hispeed_delay_s),
              "hold at hispeed before climbing further (s)"},
             {"min_sample_time", "double",
              shortest_double(id.min_sample_time_s),
              "light-load dwell required before dropping (s)"},
             {"target_load", "double", shortest_double(id.target_load),
              "proportional-scaling target utilisation"},
         },
         [](const soc::Platform& platform,
            const pns::ParamMap& params) -> std::unique_ptr<Governor> {
           InteractiveParams p;
           p.sampling_period_s =
               params.get_double("period", p.sampling_period_s);
           p.go_hispeed_load =
               params.get_double("go_hispeed_load", p.go_hispeed_load);
           p.hispeed_fraction =
               params.get_double("hispeed_fraction", p.hispeed_fraction);
           p.above_hispeed_delay_s = params.get_double(
               "above_hispeed_delay", p.above_hispeed_delay_s);
           p.min_sample_time_s =
               params.get_double("min_sample_time", p.min_sample_time_s);
           p.target_load = params.get_double("target_load", p.target_load);
           return std::make_unique<InteractiveGovernor>(platform, p);
         }},
        {"userspace",
         {
             {"index", "uint", "0", "pinned frequency-ladder index"},
         },
         [](const soc::Platform& platform,
            const pns::ParamMap& params) -> std::unique_ptr<Governor> {
           auto g = std::make_unique<UserspaceGovernor>(platform);
           if (params.has("index"))
             g->set_frequency_index(
                 static_cast<std::size_t>(params.get_uint("index", 0)));
           return g;
         }},
    };
  }();
  return table;
}

const GovernorKind& find_kind(const std::string& name) {
  for (const GovernorKind& kind : kinds())
    if (name == kind.name) return kind;
  std::string msg = "unknown governor '" + name + "' (valid:";
  for (const GovernorKind& kind : kinds()) msg += std::string(" ") + kind.name;
  msg += ")";
  throw std::invalid_argument(msg);
}

}  // namespace

std::vector<std::string> available_governors() {
  std::vector<std::string> names;
  for (const GovernorKind& kind : kinds()) names.emplace_back(kind.name);
  return names;
}

std::vector<pns::ParamInfo> governor_params(const std::string& name) {
  return find_kind(name).params;
}

std::unique_ptr<Governor> make_governor(const std::string& name,
                                        const soc::Platform& platform,
                                        const pns::ParamMap& params) {
  const GovernorKind& kind = find_kind(name);
  // Validate before constructing so a typo'd key fails with the accepted
  // list even for a governor whose value set happens to parse.
  params.validate_keys(kind.params, "governor '" + name + "'");
  return kind.make(platform, params);
}

}  // namespace pns::gov
