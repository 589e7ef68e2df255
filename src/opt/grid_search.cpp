#include "opt/grid_search.hpp"

#include "util/contracts.hpp"

namespace pns::opt {

SearchResult make_search_result(std::vector<ParamSet> candidates,
                                const std::vector<double>& scores) {
  PNS_EXPECTS(candidates.size() == scores.size());
  SearchResult result;
  result.evaluated.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    result.evaluated.push_back({candidates[i], scores[i]});
    if (scores[i] > result.best_score) {
      result.best_score = scores[i];
      result.best = candidates[i];
    }
  }
  return result;
}

BatchObjective batched(Objective objective) {
  return [objective = std::move(objective)](
             const std::vector<ParamSet>& batch) {
    std::vector<double> scores;
    scores.reserve(batch.size());
    for (const auto& p : batch) scores.push_back(objective(p));
    return scores;
  };
}

GridSpec GridSpec::paper_neighbourhood() {
  return GridSpec{
      .v_width = {0.096, 0.144, 0.216},
      .v_q = {0.032, 0.048, 0.072},
      .alpha = {0.08, 0.12, 0.18},
      .beta = {0.32, 0.48, 0.72},
  };
}

std::vector<ParamSet> GridSpec::expand() const {
  std::vector<ParamSet> out;
  out.reserve(size());
  for (double w : v_width)
    for (double q : v_q)
      for (double a : alpha)
        for (double b : beta) out.push_back(ParamSet{w, q, a, b});
  return out;
}

SearchResult grid_search(const BatchObjective& objective,
                         const GridSpec& grid) {
  PNS_EXPECTS(!grid.v_width.empty());
  PNS_EXPECTS(!grid.v_q.empty());
  PNS_EXPECTS(!grid.alpha.empty());
  PNS_EXPECTS(!grid.beta.empty());
  std::vector<ParamSet> candidates = grid.expand();
  const std::vector<double> scores = objective(candidates);
  return make_search_result(std::move(candidates), scores);
}

}  // namespace pns::opt
