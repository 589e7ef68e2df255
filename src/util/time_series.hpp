// Append-only sampled time series.
//
// Simulation recorders append (t, value) pairs with non-decreasing t;
// analysis code then computes time-weighted statistics (how long the
// voltage stayed in a band, average consumed power, total charge, ...).
#pragma once

#include <cstddef>
#include <vector>

namespace pns {

/// Sampled signal: parallel vectors of time stamps (non-decreasing) and
/// values. Between samples the signal is treated as linearly interpolated.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// Appends a sample; t must be >= the last appended t.
  void append(double t, double value);

  std::size_t size() const { return ts_.size(); }
  bool empty() const { return ts_.empty(); }

  const std::vector<double>& times() const { return ts_; }
  const std::vector<double>& values() const { return vs_; }

  double t_front() const;
  double t_back() const;
  /// Total covered duration (t_back - t_front); 0 for fewer than 2 samples.
  double duration() const;

  /// Linear interpolation at time t (clamped outside the sample range).
  double at(double t) const;

  /// Trapezoidal integral of the signal over its full duration
  /// (e.g. power series -> energy in joules).
  double integral() const;

  /// Trapezoidal integral over [a, b].
  double integral(double a, double b) const;

  /// Minimum / maximum sampled value (contract violation when empty).
  double min_value() const;
  double max_value() const;

 private:
  std::vector<double> ts_;
  std::vector<double> vs_;
};

}  // namespace pns
