// Multi-domain heterogeneous platform topology.
//
// Real mobile MP-SoCs scale several voltage/frequency domains (big and
// LITTLE clusters, interconnect, memory) under one harvested power
// budget. This subsystem generalizes the paper's single-domain model:
// a Domain carries its own frequency ladder, power/perf models and
// workload share, and a PlatformTopology composes N heterogeneous
// domains behind the existing single-domain Platform interface.
//
// The key design decision is *compilation*: rather than teach every
// engine/controller/governor about N ladders, PlatformTopology::compile()
// bakes the shared-budget arbitration into a synthetic joint ladder.
// Each level of the compiled OppTable maps to one frequency index per
// domain (MultiDomainModel::levels); the arbiter policy decides which
// per-domain allocations the joint ladder walks through:
//
//   - kProportional: an even power grid from all-min to all-max; the
//     headroom at each level splits across domains in proportion to
//     Domain::weight (each domain takes the highest ladder step whose
//     power fits its slice).
//   - kPriority: domains are raised to their ladder tops one at a time
//     in descending Domain::priority order, one index step per level.
//   - kDemand: SysScale-style demand-driven construction -- at every
//     level the single index step with the best marginal
//     instructions/sec per watt across all domains is taken, so the
//     joint ladder is the greedy Pareto walk of the configuration
//     space.
//
// All three constructions are componentwise monotone (no domain ever
// steps down as the joint level rises), which keeps the compiled
// frequency ladder strictly increasing and threshold control
// well-defined. The compiled Platform pins min_cores == max_cores so
// the paper's hotplug logic no-ops; stepping the joint ladder *is* the
// per-tick budget arbitration.
//
// When Platform::domains is null every dispatch helper falls through
// to the legacy single-domain arithmetic, byte-identical to pre-PR
// output.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "soc/platform.hpp"

namespace pns::soc {

/// One voltage/frequency domain of a heterogeneous platform.
struct Domain {
  std::string name;          ///< "little", "big", "uncore", ...
  OppTable opps;             ///< this domain's private DVFS ladder
  PowerModel power;          ///< board_base_w must be 0 (base is shared)
  PerfModel perf;            ///< throughput model for this domain's cores
  CoreConfig cores{1, 0};    ///< online cores, fixed (total() >= 1)
  double weight = 1.0;       ///< proportional-arbiter headroom share
  int priority = 0;          ///< priority arbiter rank (higher first)
  double workload_share = 1.0;  ///< fraction of workload run here

  /// Power drawn by this domain at ladder index `idx`, utilisation `u`.
  double power_at(std::size_t idx, double u) const;

  /// Instruction rate of this domain at ladder index `idx`, already
  /// scaled by workload_share so rates sum across domains.
  double instruction_rate_at(std::size_t idx, double u) const;
};

/// How the shared harvested budget is split across domains.
enum class ArbiterPolicy {
  kProportional,  ///< headroom split in proportion to Domain::weight
  kPriority,      ///< higher Domain::priority saturates first
  kDemand,        ///< greedy best marginal instr/s per watt (SysScale)
};

const char* to_string(ArbiterPolicy policy);

/// Parses "proportional" / "priority" / "demand"; throws
/// std::invalid_argument on anything else, naming the valid choices.
ArbiterPolicy arbiter_policy_from_string(const std::string& s);

/// The compiled joint-level model attached to a Platform. Immutable
/// after compile(); shared by every copy of the compiled Platform.
struct MultiDomainModel {
  std::vector<Domain> domains;
  ArbiterPolicy policy = ArbiterPolicy::kProportional;
  double base_power_w = 0.0;  ///< shared non-domain board power

  /// levels[L][d] = frequency index into domains[d].opps at joint
  /// level L. Componentwise non-decreasing in L; row 0 is all-min and
  /// the last row all-max.
  std::vector<std::vector<std::size_t>> levels;

  std::size_t domain_count() const { return domains.size(); }
  std::size_t level_count() const { return levels.size(); }

  /// Power of domain `d` at joint level `level`.
  double domain_power(std::size_t level, std::size_t d, double u) const;

  /// Workload-share-scaled instruction rate of domain `d`.
  double domain_instruction_rate(std::size_t level, std::size_t d,
                                 double u) const;

  /// base_power_w + sum of per-domain powers.
  double board_power(std::size_t level, double u) const;

  /// Sum of per-domain instruction rates.
  double instruction_rate(std::size_t level, double u) const;
};

/// A composition of heterogeneous domains plus the arbiter policy,
/// compiled into a Platform the unchanged engine stack can run.
struct PlatformTopology {
  std::string name;
  std::vector<Domain> domains;
  ArbiterPolicy policy = ArbiterPolicy::kProportional;
  double base_power_w = 0.0;

  /// Grid resolution of the proportional policy's power grid. The
  /// priority and demand walks always emit one level per single-domain
  /// index step, so their level count is fixed by the ladders.
  std::size_t proportional_levels = 8;

  /// Electrical/latency template: v_min/v_max, boot and off behaviour,
  /// transition stalls and the LatencyModel are copied from here.
  Platform base = Platform::odroid_xu4();

  /// Bakes the arbitration into a joint ladder and returns a Platform
  /// whose OppTable is the compiled ladder and whose `domains` member
  /// carries the level table. Throws std::invalid_argument on an
  /// empty/degenerate topology.
  Platform compile() const;
};

}  // namespace pns::soc
