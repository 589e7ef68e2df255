// Built-in platform kinds.
//
// "mono" is the paper's single-domain ODROID XU4, returned untouched --
// the byte-identical default every existing sweep runs on. "biglittle"
// compiles a heterogeneous soc::PlatformTopology (LITTLE + big clusters
// as independent DVFS domains, optionally an uncore domain) into a
// joint-ladder platform; the arbiter policy that splits the harvested
// budget across domains is itself a parameter. A new topology registers
// the same way: PlatformRegistry::instance().add({kind, summary,
// params, factory}).
#include <string>
#include <utility>

#include "soc/topology.hpp"
#include "sweep/registry.hpp"
#include "util/contracts.hpp"

namespace pns::sweep {

namespace {

// The big cluster's private ladder: the paper's 8 levels stretched so
// the top lands on 2.0 GHz (an A15-class ceiling). Deliberately *not* a
// clean multiple of the LITTLE ladder, so joint levels exercise the
// nearest_index midpoint tie-break.
soc::OppTable big_ladder() {
  // Named: range-for over a temporary's frequencies() would dangle.
  const soc::OppTable paper = soc::OppTable::paper_ladder();
  std::vector<double> freqs;
  for (double f : paper.frequencies()) freqs.push_back(f * (2.0 / 1.4));
  return soc::OppTable(std::move(freqs));
}

// A slow interconnect/memory ladder; the uncore executes no workload
// but competes for budget.
soc::OppTable uncore_ladder() {
  return soc::OppTable({0.4e9, 0.8e9, 1.2e9, 1.6e9});
}

soc::Platform make_biglittle(const ParamMap& params) {
  const int little_cores =
      static_cast<int>(params.get_int("little_cores", 4));
  const int big_cores = static_cast<int>(params.get_int("big_cores", 4));
  const std::uint64_t levels = params.get_uint("levels", 8);
  const double big_weight = params.get_double("big_weight", 2.0);
  const double big_share = params.get_double("big_share", 0.75);
  const bool uncore = params.get_bool("uncore", false);
  const std::string arbiter = params.get_string("arbiter", "proportional");

  if (little_cores < 1 || little_cores > 4)
    throw ParamError("param 'little_cores': expected 1..4, got " +
                     std::to_string(little_cores));
  if (big_cores < 1 || big_cores > 4)
    throw ParamError("param 'big_cores': expected 1..4, got " +
                     std::to_string(big_cores));
  if (levels < 2 || levels > 64)
    throw ParamError("param 'levels': expected 2..64, got " +
                     std::to_string(levels));
  if (big_share < 0.0 || big_share > 1.0)
    throw ParamError("param 'big_share': expected 0..1, got " +
                     params.get_string("big_share", ""));

  const soc::Platform xu4 = soc::Platform::odroid_xu4();
  const soc::PowerModelParams& pw = xu4.power.params();
  const soc::PerfModelParams& pf = xu4.perf.params();

  soc::PlatformTopology topo;
  topo.name = "big.LITTLE (" + std::to_string(little_cores) + "L+" +
              std::to_string(big_cores) + "B)";
  topo.base = xu4;
  topo.base_power_w = pw.board_base_w;
  topo.proportional_levels = static_cast<std::size_t>(levels);
  try {
    topo.policy = soc::arbiter_policy_from_string(arbiter);
  } catch (const std::invalid_argument& e) {
    throw ParamError(std::string("param 'arbiter': ") + e.what());
  }

  soc::Domain little{
      .name = "little",
      .opps = soc::OppTable::paper_ladder(),
      .power = soc::PowerModel({.board_base_w = 0.0,
                                .little = pw.little,
                                .big = pw.big}),
      .perf = soc::PerfModel(pf),
      .cores = {little_cores, 0},
      .weight = 1.0,
      .priority = 1,
      .workload_share = 1.0 - big_share,
  };
  soc::Domain big{
      .name = "big",
      .opps = big_ladder(),
      .power = soc::PowerModel({.board_base_w = 0.0,
                                .little = pw.little,
                                .big = pw.big}),
      .perf = soc::PerfModel(pf),
      .cores = {0, big_cores},
      .weight = big_weight,
      .priority = 2,
      .workload_share = big_share,
  };
  topo.domains.push_back(std::move(little));
  topo.domains.push_back(std::move(big));
  if (uncore) {
    topo.domains.push_back(soc::Domain{
        .name = "uncore",
        .opps = uncore_ladder(),
        .power = soc::PowerModel({.board_base_w = 0.0,
                                  .little = pw.little,
                                  .big = pw.big}),
        .perf = soc::PerfModel(pf),
        .cores = {1, 0},
        .weight = 0.5,
        .priority = 0,
        .workload_share = 0.0,
    });
  }
  return topo.compile();
}

}  // namespace

void PlatformAxis::register_builtins(PlatformRegistry& registry) {
  registry.add(PlatformEntry{
      "mono",
      "single-domain ODROID XU4 (the paper's board; default)",
      {},
      [](const ParamMap&) { return soc::Platform::odroid_xu4(); },
  });

  registry.add(PlatformEntry{
      "biglittle",
      "heterogeneous LITTLE+big domains under a shared-budget arbiter",
      {
          {"little_cores", "int", "4", "online LITTLE cores (1..4)"},
          {"big_cores", "int", "4", "online big cores (1..4)"},
          {"levels", "uint", "8",
           "proportional-arbiter power-grid resolution (2..64)"},
          {"big_weight", "double", "2",
           "big domain's proportional headroom weight"},
          {"big_share", "double", "0.75",
           "fraction of the workload executed on the big domain"},
          {"uncore", "bool", "false",
           "add an interconnect/memory domain (no workload share)"},
          {"arbiter", "string", "proportional",
           "budget policy: proportional, priority or demand"},
      },
      make_biglittle,
  });
}

}  // namespace pns::sweep
