// Exhaustive grid search over the controller parameter space.
//
// The paper's §III sweeps parameter combinations in Simulink; this is the
// equivalent driver. All evaluated points are returned so benches can
// print the score landscape, not just the winner.
//
// Drivers take a BatchObjective, which receives every candidate of a
// search stage at once: a simulation-backed objective fans the batch out
// over sweep::SweepRunner (see opt/objective.hpp) and inherits its
// thread pool, checkpoint journal and sharding. batched() adapts a plain
// point-wise callable.
#pragma once

#include <functional>
#include <vector>

#include "opt/objective.hpp"

namespace pns::opt {

/// Evaluates a whole batch of candidates; returns one score per input, in
/// order. Invalid candidates (ParamSet::valid() == false) must score -1.
using BatchObjective =
    std::function<std::vector<double>(const std::vector<ParamSet>&)>;

/// Adapts a point-wise objective to the batch shape (serial evaluation).
BatchObjective batched(Objective objective);

/// Candidate values per axis.
struct GridSpec {
  std::vector<double> v_width;
  std::vector<double> v_q;
  std::vector<double> alpha;
  std::vector<double> beta;

  /// Total number of combinations.
  std::size_t size() const {
    return v_width.size() * v_q.size() * alpha.size() * beta.size();
  }

  /// Every combination in canonical order: v_width outermost, then v_q,
  /// alpha, beta innermost -- the order grid_search evaluates and reports.
  std::vector<ParamSet> expand() const;

  /// The sweep used by bench_param_selection: brackets the paper's optimum
  /// (144 mV, 47.9 mV, 0.120 V/s, 0.479 V/s).
  static GridSpec paper_neighbourhood();
};

/// One evaluated point.
struct ScoredParams {
  ParamSet params;
  double score;
};

/// Search outcome: every evaluated point plus the argmax. Ties go to the
/// earlier point in evaluation order.
struct SearchResult {
  std::vector<ScoredParams> evaluated;
  ParamSet best{};
  double best_score = -1.0;
};

/// Pairs candidates with their scores and selects the argmax (first
/// candidate wins ties). The single reduction shared by every search
/// driver, so best-selection semantics cannot diverge between them.
/// Requires scores.size() == candidates.size().
SearchResult make_search_result(std::vector<ParamSet> candidates,
                                const std::vector<double>& scores);

/// Evaluates every grid combination (invalid ones score -1 and are kept in
/// `evaluated` for completeness, flagged by their score). The grid is
/// expanded once and handed to `objective` as one batch -- run in
/// parallel when backed by SweepStabilityObjective.
SearchResult grid_search(const BatchObjective& objective,
                         const GridSpec& grid);

}  // namespace pns::opt
