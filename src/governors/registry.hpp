// Governor factory keyed by cpufreq-style name.
//
// Lets benches and examples iterate "all stock governors" (Table II),
// construct one from a command-line string, and -- via its ParamMap --
// tune a governor's sysfs-style knobs without recompiling
// ("gov:ondemand:period=0.05,up_threshold=0.9" in sweep spec strings).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "governors/governor.hpp"
#include "util/params.hpp"

namespace pns::gov {

/// Names accepted by make_governor: the six stock governors
/// ("performance", "powersave", "ondemand", "conservative", "interactive",
/// "userspace"). The fixed-OPP "static" baseline is deliberately *not*
/// a governor: the sweep registry's "static" control kind runs the
/// engine pinned at one operating point with no controller at all.
std::vector<std::string> available_governors();

/// Spec-string parameters accepted by `name`'s ParamMap constructor
/// overload (empty for the fixed-frequency governors). Throws
/// std::invalid_argument listing the valid names for an unknown one.
std::vector<pns::ParamInfo> governor_params(const std::string& name);

/// Constructs a governor by name with spec-string tunables applied over
/// its default tuning. Throws std::invalid_argument listing the valid
/// names for an unknown one; unknown keys and malformed values throw
/// ParamError naming the valid keys (see governor_params).
std::unique_ptr<Governor> make_governor(const std::string& name,
                                        const soc::Platform& platform,
                                        const pns::ParamMap& params = {});

}  // namespace pns::gov
