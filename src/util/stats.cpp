#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace pns {

void RunningStats::add(double x) { add_weighted(x, 1.0); }

void RunningStats::add_weighted(double x, double weight) {
  PNS_EXPECTS(weight >= 0.0);
  if (weight == 0.0) return;
  ++count_;
  weight_sum_ += weight;
  const double delta = x - mean_;
  mean_ += (weight / weight_sum_) * delta;
  m2_ += weight * delta * (x - mean_);
  if (!has_minmax_) {
    min_ = max_ = x;
    has_minmax_ = true;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

double RunningStats::mean() const { return weight_sum_ > 0.0 ? mean_ : 0.0; }

double RunningStats::variance() const {
  if (count_ < 2 || weight_sum_ <= 0.0) return 0.0;
  return m2_ / weight_sum_;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  return has_minmax_ ? min_ : std::numeric_limits<double>::infinity();
}

double RunningStats::max() const {
  return has_minmax_ ? max_ : -std::numeric_limits<double>::infinity();
}

void RunningStats::merge(const RunningStats& other) {
  if (other.weight_sum_ == 0.0) return;
  if (weight_sum_ == 0.0) {
    *this = other;
    return;
  }
  const double w = weight_sum_ + other.weight_sum_;
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * weight_sum_ * other.weight_sum_ / w;
  mean_ += delta * other.weight_sum_ / w;
  weight_sum_ = w;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

}  // namespace pns
