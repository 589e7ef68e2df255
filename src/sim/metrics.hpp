// Metric accumulation for co-simulation runs.
//
// Accumulates, segment by segment, everything the paper's evaluation
// reports: voltage stability (fraction of time within +/-5 % of the target
// voltage, Fig. 12), energy harvested vs consumed (Fig. 14), instructions
// and renders (Table II), lifetime to first brownout (Table II), and
// voltage dwell histograms (Fig. 13).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "ehsim/sources.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace pns::sim {

/// Per-domain accounting of a multi-domain run (see soc/topology.hpp).
/// Accumulated by the engine alongside the board totals; empty on
/// legacy single-domain platforms.
struct DomainMetrics {
  std::string name;
  double energy_j = 0.0;       ///< domain energy consumed while on
  double instructions = 0.0;   ///< workload-share-scaled instructions
  /// Time-averaged fraction of the (base-exclusive) domain power budget
  /// the arbiter allocated to this domain while the board was on.
  double mean_budget_share = 0.0;

  friend bool operator==(const DomainMetrics&,
                         const DomainMetrics&) = default;
};

/// Final metrics of one run.
struct SimMetrics {
  double t_start = 0.0;
  double t_end = 0.0;

  /// Time from start to the first brownout; whole duration when none.
  double lifetime_s = 0.0;
  std::size_t brownouts = 0;

  double instructions = 0.0;
  double frames = 0.0;

  double energy_harvested_j = 0.0;  ///< source power into the node
  double energy_consumed_j = 0.0;   ///< load power out of the node

  double v_target = 0.0;        ///< band centre used for in-band fraction
  double band_fraction = 0.0;   ///< half-width as a fraction of v_target
  double time_in_band_s = 0.0;
  double uptime_s = 0.0;        ///< time spent in the ON state

  pns::RunningStats vc_stats;   ///< time-weighted node-voltage statistics

  /// Per-domain breakdown; empty unless the platform was compiled from
  /// a PlatformTopology.
  std::vector<DomainMetrics> domains;

  /// PV implicit-solve accounting of the run's source (zeroed when the
  /// source is not a PvSource). Observability only: deliberately NOT
  /// serialised by write_summary_row_json, so default CSV/JSON outputs
  /// stay byte-identical. pnsbench reports the same counters, read from
  /// PvSource::solve_stats(), as its `ehsim.pv_*` metrics.
  ehsim::PvSolveStats pv_solve;

  double duration() const { return t_end - t_start; }
  double fraction_in_band() const {
    const double d = duration();
    return d > 0.0 ? time_in_band_s / d : 0.0;
  }
  double renders_per_min() const {
    const double d = duration();
    return d > 0.0 ? frames * 60.0 / d : 0.0;
  }
  double avg_power_consumed_w() const {
    const double d = duration();
    return d > 0.0 ? energy_consumed_j / d : 0.0;
  }
};

/// Per-segment accumulator used by the engine's main loop.
class MetricsAccumulator {
 public:
  /// `v_target` and `band_fraction` define the +/- band of Fig. 12
  /// (the paper uses the array's MPP voltage and 5 %).
  MetricsAccumulator(double t_start, double v_target, double band_fraction);

  /// Accounts one integration segment. Voltages are the endpoint node
  /// voltages; powers are endpoint source/load powers (trapezoidal
  /// integration); `instr_rate` is the (constant) instruction rate over
  /// the segment; `on` whether the board executed.
  void add_segment(double t0, double t1, double v0, double v1,
                   double p_harv0, double p_harv1, double p_load,
                   double instr_rate, bool on);

  /// Records a brownout at time t.
  void on_brownout(double t);

  /// Adds a voltage-dwell histogram to be filled alongside (borrowed).
  void attach_histogram(pns::Histogram* h) { histogram_ = h; }

  /// Finalises and returns the metrics at end time `t_end`;
  /// `instr_per_frame` converts instructions to frames.
  SimMetrics finish(double t_end, double instr_per_frame) const;

 private:
  SimMetrics m_;
  std::optional<double> first_brownout_;
  pns::Histogram* histogram_ = nullptr;
};

/// Fraction of a linear segment [v0 -> v1] lying inside [lo, hi].
double band_overlap_fraction(double v0, double v1, double lo, double hi);

}  // namespace pns::sim
