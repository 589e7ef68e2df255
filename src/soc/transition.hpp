// OPP transition planning.
//
// An OPP change is not atomic: the ladder frequency moves one level at a
// time and cores hot-plug one at a time, each step taking real time
// (latency model) during which the board still burns power. The *order* of
// steps matters enormously -- Table I of the paper measures 345 ms /
// 130 mC for DVFS-first vs 63 ms / 46 mC for core-first when dropping from
// the highest to the lowest OPP -- because hot-plugging at a low clock is
// slow. TransitionPlanner builds the explicit step sequence for either
// ordering so the co-simulation (and the Table I bench) can integrate the
// true cost.
#pragma once

#include <vector>

#include "soc/latency_model.hpp"
#include "soc/opp.hpp"
#include "soc/power_model.hpp"

namespace pns::soc {

struct Platform;

/// Which class of action a step performs.
enum class TransitionKind { kDvfs, kHotplug };

/// Ordering of the two phases of a compound transition. The paper's
/// scenario (a) is kFreqFirst, scenario (b) -- the winner -- kCoreFirst.
enum class OrderingPolicy { kCoreFirst, kFreqFirst };

const char* to_string(OrderingPolicy policy);

/// One atomic step of a transition plan.
struct TransitionStep {
  TransitionKind kind;
  OperatingPoint from;
  OperatingPoint to;
  double duration_s;  ///< latency of this step
  double power_w;     ///< board power while the step executes
};

/// Builds step sequences between OPPs. Borrows the models; they must
/// outlive the planner.
class TransitionPlanner {
 public:
  TransitionPlanner(const OppTable& table, const PowerModel& power,
                    const LatencyModel& latency);

  /// Platform-aware planner: step powers dispatch through
  /// Platform::board_power(), so compiled multi-domain platforms charge
  /// the joint-level power. Identical arithmetic to the three-argument
  /// constructor on single-domain platforms.
  explicit TransitionPlanner(const Platform& platform);

  /// Full plan from `from` to `to` under `policy`. Frequency moves one
  /// ladder level per step; cores change one at a time (when shrinking,
  /// big cores are removed before LITTLE ones; when growing, LITTLE cores
  /// are added first). During each step the board is charged the worse of
  /// the step's endpoint powers (the old configuration keeps burning while
  /// the kernel works, plus switching overlap).
  std::vector<TransitionStep> plan(const OperatingPoint& from,
                                   const OperatingPoint& to,
                                   OrderingPolicy policy,
                                   double utilization = 1.0) const;

  /// Single-step frequency jump (no ladder walk): how cpufreq governors
  /// change frequency. Returns an empty plan when already at the target.
  std::vector<TransitionStep> plan_dvfs_jump(const OperatingPoint& from,
                                             std::size_t to_index,
                                             double utilization = 1.0) const;

  /// Sum of step durations (s).
  static double total_duration(const std::vector<TransitionStep>& steps);

  /// Total charge (C) drawn from the storage node at voltage `v_node`
  /// while the plan executes: Q = sum(P_step * dt) / v.
  static double total_charge(const std::vector<TransitionStep>& steps,
                             double v_node);

 private:
  void plan_core_phase(std::vector<TransitionStep>& out, OperatingPoint& cur,
                       const CoreConfig& target, double utilization) const;
  void plan_freq_phase(std::vector<TransitionStep>& out, OperatingPoint& cur,
                       std::size_t target_index, double utilization) const;
  TransitionStep make_step(TransitionKind kind, const OperatingPoint& from,
                           const OperatingPoint& to, double duration,
                           double utilization) const;

  const OppTable* table_;
  const PowerModel* power_;
  const LatencyModel* latency_;
  const Platform* platform_ = nullptr;  ///< set by the Platform ctor only
};

}  // namespace pns::soc
