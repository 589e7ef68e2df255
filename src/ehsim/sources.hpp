// Harvester / supply sources feeding the storage node.
//
// Everything upstream of the capacitor implements CurrentSource: given the
// node voltage and the time, return the current pushed into the node. Three
// concrete sources cover the paper's experiments:
//   * PvSource            -- solar array + irradiance profile (Figs. 12-14)
//   * ControlledSupply    -- bench supply with series resistance (Fig. 11)
//   * ConstantCurrent     -- analytic baseline for tests
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "ehsim/pv_table.hpp"
#include "ehsim/solar_cell.hpp"

namespace pns::ehsim {

/// Accounting of the PV implicit solves behind a PvSource (and of the
/// packed kernel executing them in batched runs). Pure observability:
/// counting changes no arithmetic, and none of these numbers reach the
/// default CSV/JSON emitters -- they surface through pnsbench's
/// `ehsim.pv_*` metrics and the batch stepper stats, where kernel wins
/// must be attributable.
struct PvSolveStats {
  std::uint64_t calls = 0;         ///< current() evaluations
  std::uint64_t table_hits = 0;    ///< answered by the bilinear table
  std::uint64_t memo_hits = 0;     ///< exact (v, il) repeats from the memo
  std::uint64_t newton_solves = 0; ///< damped-Newton solves executed
  std::uint64_t newton_iterations = 0;  ///< iterations across those solves
  std::uint64_t warm_starts = 0;   ///< solves seeded from a nearby point
  std::uint64_t simd_lanes = 0;    ///< solves executed inside a packed kernel

  PvSolveStats& operator+=(const PvSolveStats& o) {
    calls += o.calls;
    table_hits += o.table_hits;
    memo_hits += o.memo_hits;
    newton_solves += o.newton_solves;
    newton_iterations += o.newton_iterations;
    warm_starts += o.warm_starts;
    simd_lanes += o.simd_lanes;
    return *this;
  }
};

/// A device that injects current into the storage node.
class CurrentSource {
 public:
  virtual ~CurrentSource() = default;

  /// Current (A) into the node at node voltage `v` and time `t`.
  virtual double current(double v, double t) const = 0;

  /// Estimated maximum extractable power (W) at time `t`, maximised over
  /// the node voltage. Used by the power-neutrality analysis (Fig. 14);
  /// sources with no meaningful optimum may return 0.
  virtual double available_power(double /*t*/) const { return 0.0; }

  /// Latest time T >= t such that the source's *time* dependence is
  /// provably constant over [t, T] (output may still vary with the node
  /// voltage). Sources that cannot vouch return `t`; truly
  /// time-invariant ones return +infinity. The steady-state coasting
  /// fast path (sim/engine.hpp) only jumps across vouched-for spans, so
  /// a conservative answer costs speed, never correctness.
  virtual double constant_until(double t) const { return t; }
};

/// PV array driven by an irradiance profile G(t) in W/m^2.
///
/// Two evaluation modes:
///   * Mode::kExact (default) -- every current() runs the exact Newton
///     solve, so results are bit-identical to calling
///     SolarCell::current directly. A memo of the last converged solve
///     short-circuits the repeated evaluations the co-simulation loop
///     produces at segment boundaries (FSAL restarts, metric sampling)
///     without perturbing any bit.
///   * Mode::kTabulated -- current() answers from a precomputed bilinear
///     I(V, G) table (PvTable) whose worst-case error is measured at
///     construction; outside the tabulated rectangle it falls back to the
///     exact Newton solve, warm-started from the last converged current
///     when the operating point moved by less than kWarmStartDeltaV /
///     kWarmStartDeltaIl.
///
/// The caches make const calls stateful: a PvSource must not be shared by
/// concurrently running simulations. Every engine/sweep worker constructs
/// its own source, so this only matters for hand-rolled callers.
class PvSource : public CurrentSource {
 public:
  enum class Mode { kExact, kTabulated };

  /// Operating-point deltas below which the tabulated mode's off-table
  /// fallback reuses the last converged current as the Newton seed.
  static constexpr double kWarmStartDeltaV = 0.25;   // V
  static constexpr double kWarmStartDeltaIl = 0.25;  // A

  /// `irradiance` is sampled on demand; it must be callable for any t >= 0.
  /// `table_spec` is only consulted in Mode::kTabulated.
  PvSource(SolarCell cell, std::function<double(double)> irradiance,
           Mode mode = Mode::kExact, PvTableSpec table_spec = {});

  /// Tabulated mode with an externally built table (must match `cell`).
  /// PvTable is immutable, so one table can be shared across the many
  /// sources of a sweep instead of each scenario re-running the ~25k
  /// Newton solves of a table build.
  PvSource(SolarCell cell, std::function<double(double)> irradiance,
           std::shared_ptr<const PvTable> table);

  double current(double v, double t) const override;

  /// Decomposition of one current(v, t) evaluation for the batched SIMD
  /// kernel (ehsim/solar_cell_simd.hpp): plan_current() classifies the
  /// evaluation without solving, the caller executes the table / Newton
  /// paths (possibly packed across lanes), and commit_newton() applies
  /// the cache update a direct current() call would have made. The
  /// classification and the seed are computed with exactly the
  /// operations current() uses, so plan -> execute -> commit is
  /// bit-identical to current() -- current() itself is implemented on
  /// top of this plan, keeping one copy of the logic.
  struct SolvePlan {
    enum class Path : unsigned char {
      kMemo,    ///< exact (v, il) repeat: `value` is the answer, no commit
      kTable,   ///< inside the tabulated rectangle: bilinear table lookup
      kNewton,  ///< damped Newton from `seed`; commit_newton() afterwards
    };
    Path path = Path::kNewton;
    double v = 0.0;      ///< node voltage of the evaluation
    double g = 0.0;      ///< irradiance at t (table lookup coordinate)
    double il = 0.0;     ///< photo-current (Newton target)
    double value = 0.0;  ///< the answer when path == kMemo
    double seed = 0.0;   ///< Newton start current when path == kNewton
    bool warm = false;   ///< seed reuses the last converged current
  };

  /// Classifies the evaluation at (v, t) and accounts it in
  /// solve_stats(). For kMemo/kTable plans there is nothing to commit.
  SolvePlan plan_current(double v, double t) const;

  /// Records the solved current of a kNewton plan: advances the
  /// memo/warm-start cache exactly as current() would and accounts
  /// `iters` Newton iterations (`packed` marks kernel-executed solves).
  void commit_newton(const SolvePlan& plan, double i, std::uint32_t iters,
                     bool packed) const;

  /// Lifetime solve accounting of this source (see PvSolveStats).
  const PvSolveStats& solve_stats() const { return stats_; }

  /// MPP power of the array under the irradiance at time t (memoised on
  /// the irradiance value; exact in both modes).
  double available_power(double t) const override;

  /// Declares how long the irradiance profile stays flat from a given
  /// time (e.g. PiecewiseLinear::flat_until over the backing trace).
  /// Unset, constant_until conservatively reports "unknown" (t).
  void set_irradiance_hold(std::function<double(double)> hold) {
    irradiance_hold_ = std::move(hold);
  }

  /// The irradiance hold window when declared; `t` otherwise.
  double constant_until(double t) const override {
    return irradiance_hold_ ? irradiance_hold_(t) : t;
  }

  Mode mode() const { return mode_; }

  /// The interpolation table; nullptr in Mode::kExact.
  const PvTable* table() const { return table_.get(); }

  const SolarCell& cell() const { return cell_; }
  double irradiance_at(double t) const { return irradiance_(t); }

 private:
  SolarCell cell_;
  std::function<double(double)> irradiance_;
  std::function<double(double)> irradiance_hold_;  ///< optional flat window
  Mode mode_;
  std::shared_ptr<const PvTable> table_;

  // Last converged Newton solve (memo + warm-start seed).
  struct SolveCache {
    double v = 0.0, il = 0.0, i = 0.0;
    bool valid = false;
  };
  mutable SolveCache solve_cache_;

  // Last MPP evaluation, keyed on the exact irradiance value.
  struct MppCache {
    double g = 0.0, power = 0.0;
    bool valid = false;
  };
  mutable MppCache mpp_cache_;

  mutable PvSolveStats stats_;
};

/// Ideal programmable supply behind a series resistor: I = (Vs(t) - v)/R.
/// When `diode_isolated` is set, the source can only push current (a
/// blocking diode), never absorb it.
class ControlledSupply : public CurrentSource {
 public:
  ControlledSupply(std::function<double(double)> v_source,
                   double series_resistance, bool diode_isolated = false);

  double current(double v, double t) const override;
  double available_power(double t) const override;

  double source_voltage_at(double t) const { return v_source_(t); }

 private:
  std::function<double(double)> v_source_;
  double series_resistance_;
  bool diode_isolated_;
};

/// Fixed current injection (test baseline).
class ConstantCurrentSource : public CurrentSource {
 public:
  explicit ConstantCurrentSource(double amps) : amps_(amps) {}
  double current(double /*v*/, double /*t*/) const override { return amps_; }
  double constant_until(double /*t*/) const override {
    return std::numeric_limits<double>::infinity();
  }

 private:
  double amps_;
};

}  // namespace pns::ehsim
