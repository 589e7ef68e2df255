#include "soc/topology.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>

namespace pns::soc {

double Domain::power_at(std::size_t idx, double u) const {
  return power.board_power_at(cores, opps.frequency(idx), u);
}

double Domain::instruction_rate_at(std::size_t idx, double u) const {
  return workload_share * perf.instruction_rate(cores, opps.frequency(idx), u);
}

const char* to_string(ArbiterPolicy policy) {
  switch (policy) {
    case ArbiterPolicy::kProportional: return "proportional";
    case ArbiterPolicy::kPriority: return "priority";
    case ArbiterPolicy::kDemand: return "demand";
  }
  return "?";
}

ArbiterPolicy arbiter_policy_from_string(const std::string& s) {
  if (s == "proportional") return ArbiterPolicy::kProportional;
  if (s == "priority") return ArbiterPolicy::kPriority;
  if (s == "demand") return ArbiterPolicy::kDemand;
  throw std::invalid_argument("unknown arbiter policy '" + s +
                              "' (valid: proportional, priority, demand)");
}

double MultiDomainModel::domain_power(std::size_t level, std::size_t d,
                                      double u) const {
  return domains[d].power_at(levels[level][d], u);
}

double MultiDomainModel::domain_instruction_rate(std::size_t level,
                                                 std::size_t d,
                                                 double u) const {
  return domains[d].instruction_rate_at(levels[level][d], u);
}

double MultiDomainModel::board_power(std::size_t level, double u) const {
  double p = base_power_w;
  for (std::size_t d = 0; d < domains.size(); ++d) {
    p += domain_power(level, d, u);
  }
  return p;
}

double MultiDomainModel::instruction_rate(std::size_t level, double u) const {
  double rate = 0.0;
  for (std::size_t d = 0; d < domains.size(); ++d) {
    rate += domain_instruction_rate(level, d, u);
  }
  return rate;
}

namespace {

using LevelRow = std::vector<std::size_t>;

LevelRow all_min_row(const std::vector<Domain>& domains) {
  return LevelRow(domains.size(), 0);
}

LevelRow all_max_row(const std::vector<Domain>& domains) {
  LevelRow row(domains.size());
  for (std::size_t d = 0; d < domains.size(); ++d) {
    row[d] = domains[d].opps.max_index();
  }
  return row;
}

// Proportional: an even total-power grid from all-min to all-max; the
// headroom above each domain's floor is split in proportion to weight,
// and every domain takes the highest ladder step whose power fits its
// slice. Per-domain targets grow monotonically with the level, so the
// chosen indices never step down.
std::vector<LevelRow> proportional_levels_for(const std::vector<Domain>& ds,
                                              std::size_t n_levels) {
  const std::size_t n = std::max<std::size_t>(n_levels, 2);
  double p_min = 0.0;
  double p_max = 0.0;
  double weight_sum = 0.0;
  for (const Domain& d : ds) {
    p_min += d.power_at(0, 1.0);
    p_max += d.power_at(d.opps.max_index(), 1.0);
    weight_sum += d.weight;
  }
  std::vector<LevelRow> levels;
  levels.reserve(n);
  for (std::size_t level = 0; level < n; ++level) {
    const double frac = static_cast<double>(level) / static_cast<double>(n - 1);
    const double headroom = (p_max - p_min) * frac;
    LevelRow row(ds.size(), 0);
    for (std::size_t d = 0; d < ds.size(); ++d) {
      const double share =
          weight_sum > 0.0 ? ds[d].weight / weight_sum : 1.0 / ds.size();
      const double target = ds[d].power_at(0, 1.0) + headroom * share;
      std::size_t idx = 0;
      while (idx < ds[d].opps.max_index() &&
             ds[d].power_at(idx + 1, 1.0) <= target) {
        ++idx;
      }
      row[d] = idx;
    }
    levels.push_back(std::move(row));
  }
  levels.back() = all_max_row(ds);
  return levels;
}

// Priority: raise domains to their ladder tops one at a time in
// descending priority order (ties resolve to the lower domain index),
// one frequency step per joint level.
std::vector<LevelRow> priority_levels_for(const std::vector<Domain>& ds) {
  std::vector<std::size_t> order(ds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ds[a].priority > ds[b].priority;
                   });
  std::vector<LevelRow> levels;
  LevelRow row = all_min_row(ds);
  levels.push_back(row);
  for (std::size_t d : order) {
    while (row[d] < ds[d].opps.max_index()) {
      ++row[d];
      levels.push_back(row);
    }
  }
  return levels;
}

// Demand-driven (SysScale-style): from all-min, repeatedly take the
// single-domain index step with the best marginal instructions per
// joule of extra power, i.e. the greedy Pareto walk of the joint
// configuration space. Ties (including zero-workload domains, whose
// marginal rate is 0) resolve to the lower domain index.
std::vector<LevelRow> demand_levels_for(const std::vector<Domain>& ds) {
  std::vector<LevelRow> levels;
  LevelRow row = all_min_row(ds);
  levels.push_back(row);
  for (;;) {
    double best_ratio = -1.0;
    std::size_t best_d = ds.size();
    for (std::size_t d = 0; d < ds.size(); ++d) {
      if (row[d] >= ds[d].opps.max_index()) continue;
      const double dp = ds[d].power_at(row[d] + 1, 1.0) -
                        ds[d].power_at(row[d], 1.0);
      const double di = ds[d].instruction_rate_at(row[d] + 1, 1.0) -
                        ds[d].instruction_rate_at(row[d], 1.0);
      const double ratio = dp > 0.0 ? di / dp
                                    : std::numeric_limits<double>::max();
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_d = d;
      }
    }
    if (best_d == ds.size()) break;  // every domain at its top
    ++row[best_d];
    levels.push_back(row);
  }
  return levels;
}

}  // namespace

Platform PlatformTopology::compile() const {
  if (domains.empty()) {
    throw std::invalid_argument("platform topology has no domains");
  }
  std::set<std::string> names;
  for (const Domain& d : domains) {
    if (d.name.empty()) {
      throw std::invalid_argument("platform domain has an empty name");
    }
    if (!names.insert(d.name).second) {
      throw std::invalid_argument("duplicate platform domain '" + d.name +
                                  "'");
    }
    if (d.cores.total() < 1) {
      throw std::invalid_argument("platform domain '" + d.name +
                                  "' has no cores");
    }
    if (d.weight < 0.0 || d.workload_share < 0.0) {
      throw std::invalid_argument("platform domain '" + d.name +
                                  "' has a negative weight or share");
    }
  }

  std::vector<LevelRow> levels;
  switch (policy) {
    case ArbiterPolicy::kProportional:
      levels = proportional_levels_for(domains, proportional_levels);
      break;
    case ArbiterPolicy::kPriority:
      levels = priority_levels_for(domains);
      break;
    case ArbiterPolicy::kDemand:
      levels = demand_levels_for(domains);
      break;
  }
  // Collapse duplicate adjacent rows (the proportional grid can land
  // two consecutive power targets on the same configuration). Rows are
  // componentwise monotone, so the deduped walk stays monotone with
  // every consecutive pair distinct.
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());

  // Joint ladder frequency of a level: the mean of the per-domain
  // frequencies. Monotone distinct rows make it strictly increasing,
  // which OppTable requires.
  std::vector<double> freqs;
  freqs.reserve(levels.size());
  for (const LevelRow& row : levels) {
    double sum = 0.0;
    for (std::size_t d = 0; d < domains.size(); ++d) {
      sum += domains[d].opps.frequency(row[d]);
    }
    freqs.push_back(sum / static_cast<double>(domains.size()));
  }

  auto model = std::make_shared<MultiDomainModel>();
  model->domains = domains;
  model->policy = policy;
  model->base_power_w = base_power_w;
  model->levels = std::move(levels);

  Platform p = base;
  p.name = name.empty() ? "topology" : name;
  p.opps = OppTable(std::move(freqs));
  // One immovable pseudo-core: hotplug no-ops and threshold control
  // degenerates to pure joint-ladder stepping, which is exactly the
  // per-tick budget arbitration.
  p.min_cores = CoreConfig{1, 0};
  p.max_cores = CoreConfig{1, 0};
  p.domains = std::move(model);
  return p;
}

}  // namespace pns::soc
