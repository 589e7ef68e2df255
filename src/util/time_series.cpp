#include "util/time_series.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace pns {

void TimeSeries::append(double t, double value) {
  PNS_EXPECTS(ts_.empty() || t >= ts_.back());
  ts_.push_back(t);
  vs_.push_back(value);
}

double TimeSeries::t_front() const {
  PNS_EXPECTS(!empty());
  return ts_.front();
}

double TimeSeries::t_back() const {
  PNS_EXPECTS(!empty());
  return ts_.back();
}

double TimeSeries::duration() const {
  return size() < 2 ? 0.0 : ts_.back() - ts_.front();
}

double TimeSeries::at(double t) const {
  PNS_EXPECTS(!empty());
  if (t <= ts_.front()) return vs_.front();
  if (t >= ts_.back()) return vs_.back();
  const auto it = std::upper_bound(ts_.begin(), ts_.end(), t);
  const auto i = static_cast<std::size_t>(it - ts_.begin());
  const double t0 = ts_[i - 1], t1 = ts_[i];
  if (t1 == t0) return vs_[i];
  const double f = (t - t0) / (t1 - t0);
  return vs_[i - 1] + f * (vs_[i] - vs_[i - 1]);
}

double TimeSeries::integral() const {
  if (size() < 2) return 0.0;
  return integral(ts_.front(), ts_.back());
}

double TimeSeries::integral(double a, double b) const {
  PNS_EXPECTS(!empty());
  PNS_EXPECTS(a <= b);
  if (a == b) return 0.0;
  double total = 0.0;
  double t_prev = a;
  double v_prev = at(a);
  for (std::size_t i = 0; i < ts_.size(); ++i) {
    if (ts_[i] <= a) continue;
    if (ts_[i] >= b) break;
    total += 0.5 * (v_prev + vs_[i]) * (ts_[i] - t_prev);
    t_prev = ts_[i];
    v_prev = vs_[i];
  }
  total += 0.5 * (v_prev + at(b)) * (b - t_prev);
  return total;
}

double TimeSeries::min_value() const {
  PNS_EXPECTS(!empty());
  return *std::min_element(vs_.begin(), vs_.end());
}

double TimeSeries::max_value() const {
  PNS_EXPECTS(!empty());
  return *std::max_element(vs_.begin(), vs_.end());
}

}  // namespace pns
