// Tests for the multi-domain topology compiler (soc/topology.hpp).
//
// The load-bearing invariant is componentwise monotonicity of the
// compiled level table: every arbiter policy must produce rows where no
// domain steps down as the joint level rises, because the compiled
// OppTable requires strictly increasing frequencies and threshold
// control assumes ladder order == power order.
#include <gtest/gtest.h>

#include <stdexcept>

#include "soc/platform.hpp"
#include "soc/topology.hpp"

namespace pns::soc {
namespace {

Domain make_domain(std::string name, OppTable opps, CoreConfig cores,
                   double weight, int priority, double share) {
  const Platform xu4 = Platform::odroid_xu4();
  const PowerModelParams& pw = xu4.power.params();
  return Domain{
      .name = std::move(name),
      .opps = std::move(opps),
      .power = PowerModel({.board_base_w = 0.0,
                           .little = pw.little,
                           .big = pw.big}),
      .perf = PerfModel(xu4.perf.params()),
      .cores = cores,
      .weight = weight,
      .priority = priority,
      .workload_share = share,
  };
}

PlatformTopology two_domain_topology(ArbiterPolicy policy) {
  PlatformTopology topo;
  topo.name = "test-2d";
  topo.policy = policy;
  topo.base_power_w = 1.0;
  topo.domains.push_back(make_domain(
      "little", OppTable::paper_ladder(), {4, 0}, 1.0, 1, 0.4));
  topo.domains.push_back(make_domain(
      "big", OppTable({0.3e9, 0.9e9, 1.5e9, 2.0e9}), {0, 4}, 2.0, 2, 0.6));
  return topo;
}

void expect_monotone_levels(const MultiDomainModel& model) {
  ASSERT_GE(model.level_count(), 2u);
  // Row 0 all-min, last row all-max.
  for (std::size_t d = 0; d < model.domain_count(); ++d) {
    EXPECT_EQ(model.levels.front()[d], 0u);
    EXPECT_EQ(model.levels.back()[d], model.domains[d].opps.max_index());
  }
  for (std::size_t l = 1; l < model.level_count(); ++l) {
    bool strictly_up = false;
    for (std::size_t d = 0; d < model.domain_count(); ++d) {
      EXPECT_GE(model.levels[l][d], model.levels[l - 1][d])
          << "domain " << d << " steps down at level " << l;
      strictly_up = strictly_up || model.levels[l][d] > model.levels[l - 1][d];
    }
    EXPECT_TRUE(strictly_up) << "duplicate rows survived dedup at " << l;
  }
}

TEST(PlatformTopology, EveryPolicyCompilesMonotoneLevels) {
  for (const ArbiterPolicy policy :
       {ArbiterPolicy::kProportional, ArbiterPolicy::kPriority,
        ArbiterPolicy::kDemand}) {
    const Platform p = two_domain_topology(policy).compile();
    ASSERT_NE(p.domains, nullptr) << to_string(policy);
    expect_monotone_levels(*p.domains);
    // The compiled joint ladder is strictly increasing by OppTable's own
    // contract; its size must match the level table.
    EXPECT_EQ(p.opps.max_index() + 1, p.domains->level_count())
        << to_string(policy);
  }
}

TEST(PlatformTopology, CompiledPlatformPinsHotplug) {
  const Platform p = two_domain_topology(ArbiterPolicy::kProportional)
                         .compile();
  // One immovable pseudo-core: the paper's hotplug logic no-ops and
  // threshold control degenerates to pure joint-ladder stepping.
  EXPECT_EQ(p.min_cores, (CoreConfig{1, 0}));
  EXPECT_EQ(p.max_cores, (CoreConfig{1, 0}));
  EXPECT_EQ(p.name, "test-2d");
}

TEST(PlatformTopology, PriorityPolicySaturatesHigherPriorityFirst) {
  const Platform p =
      two_domain_topology(ArbiterPolicy::kPriority).compile();
  const MultiDomainModel& m = *p.domains;
  // "big" (priority 2) must reach its ladder top before "little"
  // (priority 1) leaves index 0.
  const std::size_t big_top = m.domains[1].opps.max_index();
  std::size_t level = 1;
  for (; level < m.level_count() && m.levels[level][1] < big_top; ++level)
    EXPECT_EQ(m.levels[level][0], 0u) << "little rose before big topped out";
  EXPECT_EQ(m.levels[level][1], big_top);
}

TEST(PlatformTopology, DemandPolicyWalksEverySingleStep) {
  const Platform p = two_domain_topology(ArbiterPolicy::kDemand).compile();
  const MultiDomainModel& m = *p.domains;
  // The greedy walk takes exactly one single-domain step per level, so
  // the level count is the total number of ladder steps plus one.
  std::size_t steps = 0;
  for (const Domain& d : m.domains) steps += d.opps.max_index();
  EXPECT_EQ(m.level_count(), steps + 1);
}

TEST(MultiDomainModel, BoardPowerIsBasePlusDomainSum) {
  const Platform p = two_domain_topology(ArbiterPolicy::kDemand).compile();
  const MultiDomainModel& m = *p.domains;
  for (std::size_t l = 0; l < m.level_count(); ++l) {
    double sum = m.base_power_w;
    for (std::size_t d = 0; d < m.domain_count(); ++d)
      sum += m.domain_power(l, d, 0.7);
    EXPECT_DOUBLE_EQ(m.board_power(l, 0.7), sum);
    // The Platform-level dispatch must agree with the model.
    EXPECT_DOUBLE_EQ(p.board_power(OperatingPoint{l, p.min_cores}, 0.7),
                     m.board_power(l, 0.7));
  }
}

TEST(MultiDomainModel, InstructionRatesScaleByWorkloadShare) {
  const Platform p = two_domain_topology(ArbiterPolicy::kDemand).compile();
  const MultiDomainModel& m = *p.domains;
  const std::size_t top = m.level_count() - 1;
  double sum = 0.0;
  for (std::size_t d = 0; d < m.domain_count(); ++d) {
    const double r = m.domain_instruction_rate(top, d, 1.0);
    EXPECT_GT(r, 0.0);
    sum += r;
  }
  EXPECT_DOUBLE_EQ(m.instruction_rate(top, 1.0), sum);
  EXPECT_DOUBLE_EQ(
      p.instruction_rate(OperatingPoint{top, p.min_cores}, 1.0), sum);
}

TEST(PlatformTopology, CompileValidatesTheTopology) {
  PlatformTopology empty;
  EXPECT_THROW(empty.compile(), std::invalid_argument);

  auto dup = two_domain_topology(ArbiterPolicy::kProportional);
  dup.domains[1].name = "little";
  EXPECT_THROW(dup.compile(), std::invalid_argument);

  auto unnamed = two_domain_topology(ArbiterPolicy::kProportional);
  unnamed.domains[0].name.clear();
  EXPECT_THROW(unnamed.compile(), std::invalid_argument);

  auto coreless = two_domain_topology(ArbiterPolicy::kProportional);
  coreless.domains[0].cores = {0, 0};
  EXPECT_THROW(coreless.compile(), std::invalid_argument);

  auto negative = two_domain_topology(ArbiterPolicy::kProportional);
  negative.domains[0].weight = -1.0;
  EXPECT_THROW(negative.compile(), std::invalid_argument);
}

TEST(ArbiterPolicy, StringRoundTrip) {
  for (const ArbiterPolicy policy :
       {ArbiterPolicy::kProportional, ArbiterPolicy::kPriority,
        ArbiterPolicy::kDemand})
    EXPECT_EQ(arbiter_policy_from_string(to_string(policy)), policy);
  try {
    arbiter_policy_from_string("fair");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("proportional"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace pns::soc
