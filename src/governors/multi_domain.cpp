#include "governors/multi_domain.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "governors/registry.hpp"
#include "soc/topology.hpp"

namespace pns::gov {

namespace {

bool accepts_period(const std::string& name) {
  for (const pns::ParamInfo& p : governor_params(name))
    if (p.key == "period") return true;
  return false;
}

}  // namespace

MultiDomainGovernor::MultiDomainGovernor(const std::string& inner_name,
                                         const soc::Platform& platform,
                                         const pns::ParamMap& params)
    : Governor(platform), name_("md:" + inner_name) {
  if (!platform.domains)
    throw std::invalid_argument(
        "MultiDomainGovernor requires a compiled multi-domain platform");
  period_ = params.get_double("period", 0.1);
  stagger_ = params.get_double("stagger", 1.0);
  if (!(period_ > 0.0))
    throw pns::ParamError("param 'period': must be > 0");
  if (!(stagger_ >= 1.0))
    throw pns::ParamError("param 'stagger': must be >= 1");

  // Inner tunables: everything but the wrapper's own keys, with
  // "period" rewritten to the domain period -- but only for governors
  // that declare one (make_governor rejects undeclared keys).
  pns::ParamMap base;
  for (const auto& [key, value] : params.entries())
    if (key != "period" && key != "stagger") base.set(key, value);
  const bool periodic = accepts_period(inner_name);

  const soc::MultiDomainModel& model = *platform.domains;
  for (std::size_t d = 0; d < model.domain_count(); ++d) {
    const soc::Domain& dom = model.domains[d];
    auto facade = std::make_unique<soc::Platform>(platform);
    facade->opps = dom.opps;
    facade->power = dom.power;
    facade->perf = dom.perf;
    facade->min_cores = dom.cores;
    facade->max_cores = dom.cores;
    facade->domains.reset();
    pns::ParamMap inner_params = base;
    if (periodic) inner_params.set_double("period", period_of(d));
    inner_.push_back(make_governor(inner_name, *facade, inner_params));
    facades_.push_back(std::move(facade));
  }
}

MultiDomainGovernor::~MultiDomainGovernor() = default;

double MultiDomainGovernor::period_of(std::size_t d) const {
  double p = period_;
  for (std::size_t i = 0; i < d; ++i) p *= stagger_;
  return p;
}

std::size_t MultiDomainGovernor::joint_level_for(
    const std::vector<std::size_t>& demand) const {
  const soc::MultiDomainModel& model = *platform().domains;
  for (std::size_t level = 0; level + 1 < model.level_count(); ++level) {
    bool ok = true;
    for (std::size_t d = 0; d < demand.size(); ++d)
      if (model.levels[level][d] < demand[d]) {
        ok = false;
        break;
      }
    if (ok) return level;
  }
  return model.level_count() - 1;
}

soc::OperatingPoint MultiDomainGovernor::decide(const GovernorContext& ctx) {
  const soc::MultiDomainModel& model = *platform().domains;
  const std::size_t n = model.domain_count();
  const std::size_t level =
      std::min(ctx.current.freq_index, model.level_count() - 1);
  if (!init_) {
    // Anchor every domain grid at the first tick, so all domains sample
    // now and future dues are exact multiples of their period from here.
    next_due_.assign(n, ctx.t);
    demand_ = model.levels[level];
    init_ = true;
  }
  for (std::size_t d = 0; d < n; ++d) {
    if (next_due_[d] > ctx.t + kTickEps) continue;
    const GovernorContext inner_ctx{
        ctx.t, ctx.utilization,
        {model.levels[level][d], model.domains[d].cores}};
    demand_[d] = inner_[d]->decide(inner_ctx).freq_index;
    // Catch-up by repeated addition keeps the grid bit-identical
    // whether or not intervening wrapper ticks were elided.
    const double period = period_of(d);
    while (next_due_[d] <= ctx.t + kTickEps) next_due_[d] += period;
  }
  // The arbitration step: the joint ladder grants each domain at least
  // what its governor asked for, at the lowest total power the compiled
  // level table offers.
  return {joint_level_for(demand_), ctx.current.cores};
}

double MultiDomainGovernor::hold_until(const GovernorContext& ctx) const {
  if (!init_) return ctx.t;
  const soc::MultiDomainModel& model = *platform().domains;
  const std::size_t level =
      std::min(ctx.current.freq_index, model.level_count() - 1);
  // Wrapper fixed-point premise: every demand already matches the
  // current allocation, so decide() would return `level` again. (A
  // pending unmet demand means the very next tick can move.)
  for (std::size_t d = 0; d < model.domain_count(); ++d)
    if (demand_[d] != model.levels[level][d]) return ctx.t;

  double hold = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d < model.domain_count(); ++d) {
    const GovernorContext inner_ctx{
        ctx.t, ctx.utilization,
        {model.levels[level][d], model.domains[d].cores}};
    const double ih = inner_[d]->hold_until(inner_ctx);
    if (ih == std::numeric_limits<double>::infinity()) continue;
    // First domain due time at or after ih: wrapper ticks strictly
    // before it either precede the domain's next due (the inner is not
    // consulted at all) or land inside the inner promise window (a
    // provable no-op; decide()'s catch-up reconstructs the skipped due
    // advances exactly). A bulk jump gets within a few periods of ih,
    // then repeated addition finishes conservatively.
    double due = next_due_[d];
    const double period = period_of(d);
    if (ih > due) {
      const double jump = std::floor((ih - due) / period) - 1.0;
      if (jump > 0.0) due += jump * period;
      while (due + kTickEps < ih) due += period;
    }
    hold = std::min(hold, due);
  }
  return hold;
}

void MultiDomainGovernor::reset() {
  for (auto& g : inner_) g->reset();
  init_ = false;
  next_due_.clear();
  demand_.clear();
}

std::vector<pns::ParamInfo> MultiDomainGovernor::params_for(
    const std::string& name) {
  std::vector<pns::ParamInfo> params = {
      {"period", "double", "0.1",
       "domain 0 sampling period (s); wrapper ticks at this rate"},
      {"stagger", "double", "1",
       "domain d samples every period * stagger^d seconds (>= 1)"},
  };
  for (const pns::ParamInfo& p : governor_params(name))
    if (p.key != "period") params.push_back(p);
  return params;
}

}  // namespace pns::gov
