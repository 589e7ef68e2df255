// Platform bundle: everything the rest of the stack needs to know about a
// concrete board.
//
// Platform::odroid_xu4() is calibrated against every hardware figure in
// the paper: power curves (Fig. 4), raytrace throughput (Fig. 7),
// transition latencies (Fig. 10), and the 4.1-5.7 V input range of the
// ODROID XU4 (Section IV). Custom boards (e.g. a homogeneous quad-core
// MCU) are built by filling the struct directly -- see
// examples/custom_platform.cpp.
#pragma once

#include <memory>
#include <string>

#include "soc/latency_model.hpp"
#include "soc/opp.hpp"
#include "soc/perf_model.hpp"
#include "soc/power_model.hpp"

namespace pns::soc {

struct MultiDomainModel;

/// Complete model of a target board.
struct Platform {
  std::string name;
  OppTable opps;
  PowerModel power;
  PerfModel perf;
  LatencyModel latency;

  /// Hot-plug limits. CPU0 (a LITTLE core) can never be unplugged on the
  /// Exynos5422, hence min {1, 0}.
  CoreConfig min_cores{1, 0};
  CoreConfig max_cores{4, 4};

  /// Board electrical limits (V): the ODROID XU4 operates 4.1-5.7 V.
  double v_min = 4.1;
  double v_max = 5.7;

  /// Cold-boot behaviour after a brownout.
  double boot_time_s = 8.0;   ///< kernel boot until workload resumes
  double boot_power_w = 2.2;  ///< draw during boot
  double off_power_w = 0.012; ///< residual draw when browned out

  /// Fraction of compute lost while a transition step executes.
  double hotplug_stall = 0.5;
  double dvfs_stall = 0.15;

  /// Compiled multi-domain model (see soc/topology.hpp). Null for the
  /// legacy single-domain path; when set, `opps` is the synthetic joint
  /// ladder and board_power()/instruction_rate() dispatch per level.
  std::shared_ptr<const MultiDomainModel> domains;

  /// True when `c` lies within the hot-plug limits.
  bool valid_cores(const CoreConfig& c) const;

  /// Lowest-power OPP: min cores at the bottom ladder frequency.
  OperatingPoint lowest_opp() const;

  /// Highest-power OPP: max cores at the top ladder frequency.
  OperatingPoint highest_opp() const;

  /// Board power at `opp`, utilisation `u`. Dispatches through the
  /// multi-domain model when present; otherwise identical arithmetic to
  /// power.board_power(opp, opps, u).
  double board_power(const OperatingPoint& opp, double u = 1.0) const;

  /// Aggregate instruction rate at `opp`, utilisation `u`; dispatches
  /// like board_power().
  double instruction_rate(const OperatingPoint& opp, double u = 1.0) const;

  /// The ODROID XU4 / Exynos5422 board of the paper.
  static Platform odroid_xu4();
};

}  // namespace pns::soc
