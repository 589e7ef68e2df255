// Streaming statistics.
//
// RunningStats uses Welford's online algorithm so six-hour simulations can
// accumulate voltage/power statistics without retaining samples.
#pragma once

#include <cstddef>

namespace pns {

/// Online mean/variance/min/max accumulator (Welford).
class RunningStats {
 public:
  /// Adds one sample.
  void add(double x);

  /// Adds a sample with a non-negative weight (e.g. a time duration, for
  /// time-weighted averages over irregularly sampled series).
  void add_weighted(double x, double weight);

  /// Number of add() calls (weighted adds count once each).
  std::size_t count() const { return count_; }

  /// Sum of weights (== count() when only add() was used).
  double total_weight() const { return weight_sum_; }

  /// Weighted mean of the samples; 0 if empty.
  double mean() const;

  /// Weighted population variance; 0 if fewer than 2 samples.
  double variance() const;

  /// Square root of variance().
  double stddev() const;

  double min() const;  ///< Smallest sample; +inf if empty.
  double max() const;  ///< Largest sample; -inf if empty.

  /// Merges another accumulator into this one.
  void merge(const RunningStats& other);

  /// Resets to the empty state.
  void reset();

 private:
  std::size_t count_ = 0;
  double weight_sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool has_minmax_ = false;
};

}  // namespace pns
