#include "opt/random_search.hpp"

#include <cmath>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace pns::opt {
namespace {

double log_uniform(pns::Rng& rng, double lo, double hi) {
  PNS_EXPECTS(lo > 0.0 && hi >= lo);
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

// Draws the whole candidate set up front. The RNG stream is consumed in
// exactly the order the old interleaved draw-evaluate loop consumed it,
// so results for a given seed are unchanged -- but evaluation can now
// happen as one batch (parallel when the objective is sweep-backed).
std::vector<ParamSet> draw_candidates(const RandomSearchSpec& spec) {
  pns::Rng rng(spec.seed);
  std::vector<ParamSet> out;
  out.reserve(spec.iterations);
  for (std::size_t i = 0; i < spec.iterations; ++i) {
    ParamSet p{};
    for (int attempt = 0; attempt < 64; ++attempt) {
      p.v_width = log_uniform(rng, spec.v_width_lo, spec.v_width_hi);
      p.v_q = log_uniform(rng, spec.v_q_lo, spec.v_q_hi);
      p.alpha = log_uniform(rng, spec.alpha_lo, spec.alpha_hi);
      p.beta = log_uniform(rng, spec.beta_lo, spec.beta_hi);
      if (p.valid()) break;
    }
    out.push_back(p);
  }
  return out;
}

}  // namespace

SearchResult random_search(const BatchObjective& objective,
                           const RandomSearchSpec& spec) {
  PNS_EXPECTS(spec.iterations > 0);
  std::vector<ParamSet> candidates = draw_candidates(spec);
  const std::vector<double> scores = objective(candidates);
  return make_search_result(std::move(candidates), scores);
}

}  // namespace pns::opt
