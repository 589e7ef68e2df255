// Sweep-layer tests for the platform axis (sweep/scenario.hpp
// PlatformSpec, sweep/registry.cpp resolve_platform, the registered
// "mono"/"biglittle" kinds) and the per-domain metrics that ride the
// SummaryRow JSON.
//
// The two contracts pinned here: (1) the default platform is
// byte-invisible -- an explicit "mono" run and a default run produce
// identical canonical metrics, and the journal identity omits the
// platform key entirely; (2) multi-domain runs are execution-strategy
// independent -- the rk23simd lanes reproduce the scalar rk23pi
// per-domain metrics bit for bit.
#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../support/scenario_grid.hpp"
#include "soc/topology.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/assets.hpp"
#include "sweep/registry.hpp"
#include "sweep/scenario.hpp"
#include "sweepd/job.hpp"
#include "util/json.hpp"
#include "util/params.hpp"

namespace pns::sweep {
namespace {

using testsupport::GridOptions;
using testsupport::canonical_metrics;
using testsupport::make_scenario_grid;

// ------------------------------------------------------ spec strings

TEST(PlatformSpec, ParseRoundTripsEveryRegisteredKind) {
  for (const PlatformEntry& entry : PlatformRegistry::instance().entries()) {
    const PlatformSpec spec = PlatformSpec::parse(entry.kind);
    EXPECT_EQ(spec.kind, entry.kind);
    EXPECT_EQ(PlatformSpec::parse(spec.spec_string()).spec_string(),
              spec.spec_string());
  }
  const PlatformSpec two =
      PlatformSpec::parse("biglittle:big_cores=2,arbiter=priority");
  EXPECT_EQ(two.spec_string(), "biglittle:big_cores=2,arbiter=priority");
}

TEST(PlatformSpec, UnknownKindNamesTheValidChoices) {
  try {
    PlatformSpec::parse("quadlittle");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mono"), std::string::npos) << what;
    EXPECT_NE(what.find("biglittle"), std::string::npos) << what;
  }
}

TEST(PlatformSpec, UnknownAndMistypedParamsAreRejected) {
  EXPECT_THROW(PlatformSpec::parse("biglittle:turbo=1"), ParamError);
  EXPECT_THROW(PlatformSpec::parse("biglittle:big_cores=many"),
               ParamError);
  EXPECT_THROW(PlatformSpec::parse("mono:cores=4"), ParamError);
  // Keys and types gate parse; *values* gate resolution -- a bad
  // arbiter spelling is caught by the factory, naming the policies.
  try {
    resolve_platform(PlatformSpec::parse("biglittle:arbiter=fair"));
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    EXPECT_NE(std::string(e.what()).find("proportional"),
              std::string::npos);
  }
}

TEST(ResolvePlatform, CompilesRegisteredMultiDomainKinds) {
  const soc::Platform mono = resolve_platform(PlatformSpec{});
  EXPECT_EQ(mono.domains, nullptr);

  const soc::Platform bl =
      resolve_platform(PlatformSpec::parse("biglittle"));
  ASSERT_NE(bl.domains, nullptr);
  EXPECT_EQ(bl.domains->domain_count(), 2u);
  EXPECT_EQ(bl.domains->domains[0].name, "little");
  EXPECT_EQ(bl.domains->domains[1].name, "big");

  const soc::Platform uncore =
      resolve_platform(PlatformSpec::parse("biglittle:uncore=true"));
  ASSERT_NE(uncore.domains, nullptr);
  EXPECT_EQ(uncore.domains->domain_count(), 3u);
}

// --------------------------------------------------- journal identity

// The journal identity of `pns_sweep table2 --minutes 15 [--platform P]`.
std::string table2_identity(PlatformSpec platform) {
  sweepd::JobSpec job;
  job.preset = "table2";
  job.minutes = 15.0;
  job.platform = std::move(platform);
  return job.identity();
}

TEST(SweepIdentity, DefaultPlatformIsOmitted) {
  const std::string id = table2_identity(PlatformSpec{});
  EXPECT_EQ(id.find("platform="), std::string::npos) << id;
  // Spelling "mono" out loud must not perturb pre-platform identities.
  EXPECT_EQ(table2_identity(PlatformSpec::parse("mono")), id);
}

TEST(SweepIdentity, NonDefaultPlatformIsPinned) {
  const std::string id =
      table2_identity(PlatformSpec::parse("biglittle:big_cores=2"));
  EXPECT_NE(id.find("platform=biglittle:big_cores=2"), std::string::npos)
      << id;
  // Different topology -> different identity (resume-mixing guard).
  EXPECT_NE(id, table2_identity(PlatformSpec::parse("biglittle")));
}

// ------------------------------------------------- default neutrality

TEST(PlatformAxis, ExplicitMonoMatchesDefaultByteForByte) {
  GridOptions opt;
  opt.count = 4;
  opt.max_window_s = 40.0;
  const auto specs = make_scenario_grid(0x5EEDFACEull, opt);
  ScenarioAssets assets;
  for (ScenarioSpec spec : specs) {
    spec.platform_spec = PlatformSpec{};
    const std::string def =
        canonical_metrics(spec, run_scenario(spec, assets));
    spec.platform_spec = PlatformSpec::parse("mono");
    EXPECT_EQ(canonical_metrics(spec, run_scenario(spec, assets)), def)
        << spec.label;
  }
}

// --------------------------------------------- per-domain metrics

TEST(PlatformAxis, MultiDomainRunsProducePerDomainMetrics) {
  ScenarioSpec spec;
  spec.label = "md-metrics";
  spec.platform_spec = PlatformSpec::parse("biglittle");
  spec.control = ControlSpec::parse("pns");
  spec.integrator = IntegratorSpec::parse("rk23pi");
  spec.t_end = spec.t_start + 60.0;

  SweepOutcome out;
  out.spec = spec;
  out.result = run_scenario(spec);
  out.ok = true;
  const SummaryRow row = summarize(out);

  ASSERT_EQ(row.domains.size(), 2u);
  EXPECT_EQ(row.domains[0].name, "little");
  EXPECT_EQ(row.domains[1].name, "big");
  double share = 0.0, energy = 0.0, instr = 0.0;
  for (const sim::DomainMetrics& d : row.domains) {
    EXPECT_GT(d.energy_j, 0.0) << d.name;
    EXPECT_GT(d.instructions, 0.0) << d.name;
    share += d.mean_budget_share;
    energy += d.energy_j;
    instr += d.instructions;
  }
  EXPECT_NEAR(share, 1.0, 1e-9);
  // Domain decomposition is a decomposition: parts bounded by wholes.
  EXPECT_LE(energy, out.result.metrics.energy_consumed_j * (1 + 1e-9));
  EXPECT_NEAR(instr, out.result.metrics.instructions, 1e-6 * instr);

  // Determinism: a second run reproduces the exact bytes.
  EXPECT_EQ(canonical_metrics(spec, run_scenario(spec)),
            canonical_metrics(out));
}

TEST(PlatformAxis, MonoRowsCarryNoDomainsArray) {
  ScenarioSpec spec;
  spec.label = "mono-metrics";
  spec.t_end = spec.t_start + 30.0;
  SweepOutcome out;
  out.spec = spec;
  out.result = run_scenario(spec);
  out.ok = true;
  EXPECT_TRUE(summarize(out).domains.empty());
  // The frozen CSV/JSON surface: no "domains" key at all on mono rows.
  EXPECT_EQ(canonical_metrics(out).find("\"domains\""),
            std::string::npos);
}

TEST(SummaryRow, DomainsSurviveTheJsonRoundTrip) {
  SummaryRow row;
  row.label = "rt";
  row.ok = true;
  row.domains.push_back({"little", 1.25, 3.0e9, 0.4375});
  row.domains.push_back({"big", 7.5, 2.1e10, 0.5625});

  std::ostringstream os;
  JsonWriter w(os, JsonStyle::kCompact);
  write_summary_row_json(w, row);
  const SummaryRow back = summary_row_from_json(parse_json(os.str()));
  ASSERT_EQ(back.domains.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.domains[i].name, row.domains[i].name);
    EXPECT_EQ(back.domains[i].energy_j, row.domains[i].energy_j);
    EXPECT_EQ(back.domains[i].instructions, row.domains[i].instructions);
    EXPECT_EQ(back.domains[i].mean_budget_share,
              row.domains[i].mean_budget_share);
  }
}

// ------------------------------------------------------ batch parity

TEST(PlatformAxis, MultiDomainBatchLanesMatchScalarExactly) {
  GridOptions opt;
  opt.count = 8;
  opt.max_window_s = 60.0;
  opt.platforms = {"biglittle", "biglittle:arbiter=priority",
                   "biglittle:arbiter=demand,big_cores=2",
                   "biglittle:uncore=true"};
  opt.controls = {"pns", "gov:ondemand", "mdgov:conservative",
                  "mdgov:ondemand:stagger=2", "static"};
  const auto specs = make_scenario_grid(0xD0A1A1ull, opt);

  // Scalar reference under rk23pi.
  std::vector<std::string> ref;
  ScenarioAssets assets;
  for (ScenarioSpec spec : specs) {
    spec.integrator = IntegratorSpec::parse("rk23pi");
    ref.push_back(canonical_metrics(spec, run_scenario(spec, assets)));
    // Every reference row must actually carry per-domain metrics,
    // otherwise this parity test is comparing empty arrays.
    EXPECT_NE(ref.back().find("\"domains\""), std::string::npos);
  }

  // Batched lanes under rk23simd, width 4.
  std::vector<ScenarioSpec> batched = specs;
  for (auto& spec : batched)
    spec.integrator = IntegratorSpec::parse("rk23simd:width=4");
  for (std::size_t begin = 0; begin < batched.size(); begin += 4) {
    const std::size_t n = std::min<std::size_t>(4, batched.size() - begin);
    const auto outcomes =
        run_scenarios_batched(batched.data() + begin, n, assets);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_TRUE(outcomes[k].ok) << outcomes[k].error;
      EXPECT_EQ(canonical_metrics(outcomes[k]), ref[begin + k])
          << specs[begin + k].label;
    }
  }
}

}  // namespace
}  // namespace pns::sweep
