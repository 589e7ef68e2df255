// Piecewise-linear function of one variable.
//
// Backbone of every table-driven model in the library: irradiance traces,
// measured IV curves, latency tables and supply profiles are all
// PiecewiseLinear instances. Evaluation clamps outside the knot range
// (constant extrapolation), which is the physically sensible behaviour for
// all of those uses.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace pns {

/// Immutable-after-build piecewise-linear function y(x) defined by knots
/// with strictly increasing x. Evaluation is O(log n).
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;

  /// Builds from parallel knot vectors. Requires equal non-zero sizes and
  /// strictly increasing xs.
  PiecewiseLinear(std::vector<double> xs, std::vector<double> ys);

  /// Number of knots.
  std::size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }

  double x_front() const;
  double x_back() const;

  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }

  /// Interpolated value; clamps to the end values outside [x_front, x_back].
  double operator()(double x) const;

  /// Same result as operator() -- bit for bit -- but O(1) for the
  /// mostly-monotone access patterns of a simulation loop: `hint` caches
  /// the last knot index between calls and is first checked (and its right
  /// neighbour) before falling back to binary search. Callers keep one
  /// hint per traversal; any value (including stale ones) is safe.
  double eval_hinted(double x, std::size_t& hint) const;

  /// Largest X >= x such that y is constant on [x, X]: the end of the
  /// run of level segments containing x, +infinity when that run reaches
  /// the last knot (clamped extrapolation is constant), or `x` itself
  /// when the containing segment has slope. Powers the steady-state
  /// coasting fast path's "source is flat until" query.
  double flat_until(double x) const;

  /// Same result as flat_until -- bit for bit -- with the hinted O(1)
  /// bracket lookup of eval_hinted. The simulation loop asks this once
  /// per segment at near-monotone times, which otherwise pays a binary
  /// search over the whole trace every segment.
  double flat_until_hinted(double x, std::size_t& hint) const;

  /// Returns a new function with every y multiplied by `factor`.
  PiecewiseLinear scaled(double factor) const&;
  /// Same result, scaling this function's own knots instead of a copy.
  PiecewiseLinear scaled(double factor) &&;

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace pns
