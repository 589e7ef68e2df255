#include "util/interp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace pns {

PiecewiseLinear::PiecewiseLinear(std::vector<double> xs,
                                 std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  PNS_EXPECTS(!xs_.empty());
  PNS_EXPECTS(xs_.size() == ys_.size());
  for (std::size_t i = 1; i < xs_.size(); ++i) PNS_EXPECTS(xs_[i] > xs_[i - 1]);
}

double PiecewiseLinear::x_front() const {
  PNS_EXPECTS(!empty());
  return xs_.front();
}

double PiecewiseLinear::x_back() const {
  PNS_EXPECTS(!empty());
  return xs_.back();
}

double PiecewiseLinear::operator()(double x) const {
  PNS_EXPECTS(!empty());
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  const auto i = static_cast<std::size_t>(it - xs_.begin());
  const double x0 = xs_[i - 1], x1 = xs_[i];
  const double y0 = ys_[i - 1], y1 = ys_[i];
  const double t = (x - x0) / (x1 - x0);
  return y0 + t * (y1 - y0);
}

double PiecewiseLinear::eval_hinted(double x, std::size_t& hint) const {
  PNS_EXPECTS(!empty());
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  // Find i such that xs_[i-1] <= x < xs_[i] -- exactly the index
  // upper_bound would return in operator(), so the interpolation below is
  // bit-identical to it.
  std::size_t i = hint;
  const std::size_t n = xs_.size();
  if (!(i >= 1 && i < n && xs_[i] > x && xs_[i - 1] <= x)) {
    if (i + 1 < n && xs_[i + 1] > x && xs_[i] <= x) {
      ++i;  // advanced one knot since the last call (the common case)
    } else {
      const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
      i = static_cast<std::size_t>(it - xs_.begin());
    }
  }
  hint = i;
  const double x0 = xs_[i - 1], x1 = xs_[i];
  const double y0 = ys_[i - 1], y1 = ys_[i];
  const double t = (x - x0) / (x1 - x0);
  return y0 + t * (y1 - y0);
}

double PiecewiseLinear::flat_until(double x) const {
  PNS_EXPECTS(!empty());
  if (x >= xs_.back())  // constant extrapolation beyond the last knot
    return std::numeric_limits<double>::infinity();
  // Index of the first knot strictly beyond x; the function is flat on
  // [x, xs_[i]] iff the surrounding segment is level (or x sits in the
  // clamped region before the first knot).
  auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  auto i = static_cast<std::size_t>(it - xs_.begin());
  if (i >= 1 && ys_[i] != ys_[i - 1]) return x;
  // Extend across consecutive level segments.
  while (i + 1 < xs_.size() && ys_[i + 1] == ys_[i]) ++i;
  return i + 1 < xs_.size() ? xs_[i]
                            : std::numeric_limits<double>::infinity();
}

double PiecewiseLinear::flat_until_hinted(double x, std::size_t& hint) const {
  PNS_EXPECTS(!empty());
  if (x >= xs_.back())  // constant extrapolation beyond the last knot
    return std::numeric_limits<double>::infinity();
  // Same bracket as flat_until's upper_bound: xs_[i] > x, xs_[i-1] <= x
  // (or i == 0 in the clamped region before the first knot).
  std::size_t i = hint;
  const std::size_t n = xs_.size();
  if (!(i < n && xs_[i] > x && (i == 0 || xs_[i - 1] <= x))) {
    if (i + 1 < n && xs_[i + 1] > x && xs_[i] <= x) {
      ++i;  // advanced one knot since the last call (the common case)
    } else {
      const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
      i = static_cast<std::size_t>(it - xs_.begin());
    }
  }
  hint = i;
  if (i >= 1 && ys_[i] != ys_[i - 1]) return x;
  while (i + 1 < n && ys_[i + 1] == ys_[i]) ++i;
  return i + 1 < n ? xs_[i] : std::numeric_limits<double>::infinity();
}

PiecewiseLinear PiecewiseLinear::scaled(double factor) const& {
  return PiecewiseLinear(*this).scaled(factor);
}

PiecewiseLinear PiecewiseLinear::scaled(double factor) && {
  for (auto& y : ys_) y *= factor;
  return std::move(*this);
}

}  // namespace pns
