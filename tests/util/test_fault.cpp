// Tests of the deterministic fault-injection fabric (util/fault.hpp):
// spec-string parsing, and -- the property everything else rests on --
// that a seed fully determines every site's injection sequence.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/fault.hpp"
#include "util/params.hpp"

namespace pns::fault {
namespace {

TEST(FaultSpec, ParsesFullGrammar) {
  const FaultSpec spec = FaultSpec::parse(
      "fault:seed=7,conn_drop=0.05,short_read=0.25,short_write=0.1,"
      "eintr=0.5,fsync_fail=2,fsync_fail_from=9,torn_append=0.2");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.conn_drop, 0.05);
  EXPECT_DOUBLE_EQ(spec.short_read, 0.25);
  EXPECT_DOUBLE_EQ(spec.short_write, 0.1);
  EXPECT_DOUBLE_EQ(spec.eintr, 0.5);
  EXPECT_EQ(spec.fsync_fail, 2u);
  EXPECT_EQ(spec.fsync_fail_from, 9u);
  EXPECT_DOUBLE_EQ(spec.torn_append, 0.2);
}

TEST(FaultSpec, PrefixIsOptionalAndDefaultsAreOff) {
  EXPECT_EQ(FaultSpec::parse("seed=3"), FaultSpec::parse("fault:seed=3"));
  const FaultSpec off = FaultSpec::parse("fault");
  EXPECT_EQ(off, FaultSpec{});
  EXPECT_DOUBLE_EQ(off.conn_drop, 0.0);
  EXPECT_EQ(off.fsync_fail, 0u);
}

TEST(FaultSpec, SpecStringRoundTrips) {
  const char* cases[] = {
      "fault:seed=7,conn_drop=0.05,short_write=0.1,fsync_fail=2",
      "fault:seed=1",
      "fault:seed=42,eintr=0.9,torn_append=0.5,fsync_fail_from=3",
  };
  for (const char* text : cases) {
    const FaultSpec spec = FaultSpec::parse(text);
    EXPECT_EQ(FaultSpec::parse(spec.spec_string()), spec) << text;
  }
}

TEST(FaultSpec, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(FaultSpec::parse("fault:frobnicate=1"), ParamError);
  EXPECT_THROW(FaultSpec::parse("fault:conn_drop=1.5"), ParamError);
  EXPECT_THROW(FaultSpec::parse("fault:short_read=-0.1"), ParamError);
  EXPECT_THROW(FaultSpec::parse("fault:seed=banana"), ParamError);
  // The unknown-key diagnostic names the accepted keys.
  try {
    FaultSpec::parse("fault:frobnicate=1");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    EXPECT_NE(std::string(e.what()).find("conn_drop"), std::string::npos);
  }
}

/// The decision record of one injector, exercised in a fixed pattern.
std::vector<std::uint64_t> exercise(FaultInjector& f) {
  std::vector<std::uint64_t> record;
  for (int k = 0; k < 200; ++k) {
    record.push_back(f.drop_connection() ? 1 : 0);
    record.push_back(f.clamp_read(4096));
    record.push_back(f.clamp_write(4096));
    record.push_back(f.inject_eintr() ? 1 : 0);
    record.push_back(f.fail_fsync() ? 1 : 0);
    record.push_back(f.tear_append(100));
  }
  return record;
}

/// Faults injected across every site.
std::uint64_t total_hits(const FaultInjector& f) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kFaultSiteCount; ++i)
    total += f.stats(static_cast<FaultSite>(i)).hits;
  return total;
}

TEST(FaultInjector, SameSeedReplaysTheSameSchedule) {
  const FaultSpec spec = FaultSpec::parse(
      "fault:seed=7,conn_drop=0.1,short_read=0.3,short_write=0.3,"
      "eintr=0.2,fsync_fail_from=50,torn_append=0.2");
  FaultInjector a(spec);
  FaultInjector b(spec);
  EXPECT_EQ(exercise(a), exercise(b));
  EXPECT_GT(total_hits(a), 0u);
  EXPECT_EQ(total_hits(a), total_hits(b));
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultSpec spec = FaultSpec::parse(
      "fault:seed=7,conn_drop=0.1,short_read=0.3,short_write=0.3,"
      "eintr=0.2,torn_append=0.2");
  FaultInjector a(spec);
  spec.seed = 8;
  FaultInjector b(spec);
  EXPECT_NE(exercise(a), exercise(b));
}

TEST(FaultInjector, SitesAreIndependentStreams) {
  // Exercising *other* sites between two draws of one site must not
  // change that site's sequence -- this is what makes chaos runs immune
  // to thread-interleaving across components.
  const FaultSpec spec =
      FaultSpec::parse("fault:seed=9,conn_drop=0.5,eintr=0.5");
  FaultInjector lone(spec);
  FaultInjector mixed(spec);
  std::vector<int> lone_seq, mixed_seq;
  for (int k = 0; k < 100; ++k) {
    lone_seq.push_back(lone.drop_connection() ? 1 : 0);
    mixed_seq.push_back(mixed.drop_connection() ? 1 : 0);
    mixed.inject_eintr();  // extra traffic on an unrelated site
    mixed.clamp_read(100);
  }
  EXPECT_EQ(lone_seq, mixed_seq);
}

TEST(FaultInjector, ClampsAreShortButNeverZero) {
  const FaultSpec spec =
      FaultSpec::parse("fault:seed=3,short_read=1,short_write=1");
  FaultInjector f(spec);
  for (int k = 0; k < 300; ++k) {
    const std::size_t r = f.clamp_read(1000);
    const std::size_t w = f.clamp_write(1000);
    EXPECT_GE(r, 1u);
    EXPECT_LT(r, 1000u);  // p=1: every budget is genuinely short
    EXPECT_GE(w, 1u);
    EXPECT_LT(w, 1000u);
    EXPECT_EQ(f.clamp_read(1), 1u);  // nothing to shorten
  }
  EXPECT_EQ(f.stats(FaultSite::kShortRead).ops, 600u);
  EXPECT_EQ(f.stats(FaultSite::kShortWrite).ops, 300u);
}

TEST(FaultInjector, EintrStormsAlwaysYieldACleanCall) {
  // Even at p=1 the storm/cooldown structure must guarantee forward
  // progress: runs of injected EINTRs are finite (<= 3) and every storm
  // is followed by at least one clean call.
  FaultInjector f(FaultSpec::parse("fault:seed=5,eintr=1"));
  int run = 0;
  int clean_calls = 0;
  for (int k = 0; k < 500; ++k) {
    if (f.inject_eintr()) {
      ++run;
      ASSERT_LE(run, 3);
    } else {
      ++clean_calls;
      run = 0;
    }
  }
  EXPECT_GT(clean_calls, 100);
}

TEST(FaultInjector, FsyncScheduleCountsFromOne) {
  {  // exactly the Nth fsync fails
    FaultInjector f(FaultSpec::parse("fault:seed=1,fsync_fail=3"));
    std::vector<bool> fails;
    for (int k = 0; k < 6; ++k) fails.push_back(f.fail_fsync());
    EXPECT_EQ(fails,
              (std::vector<bool>{false, false, true, false, false, false}));
  }
  {  // every fsync from the Nth on fails (dead disk)
    FaultInjector f(FaultSpec::parse("fault:seed=1,fsync_fail_from=2"));
    std::vector<bool> fails;
    for (int k = 0; k < 4; ++k) fails.push_back(f.fail_fsync());
    EXPECT_EQ(fails, (std::vector<bool>{false, true, true, true}));
  }
}

TEST(FaultInjector, TearOffsetsStayInsideTheLine) {
  FaultInjector f(FaultSpec::parse("fault:seed=2,torn_append=1"));
  for (int k = 0; k < 200; ++k) {
    const std::size_t keep = f.tear_append(80);
    EXPECT_LT(keep, 80u);  // p=1: always torn, never the whole line
  }
}

TEST(MakeInjector, EmptySpecMeansNoInjector) {
  EXPECT_EQ(make_injector(""), nullptr);
  const auto f = make_injector("fault:seed=11,conn_drop=0.5");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->spec().seed, 11u);
}

}  // namespace
}  // namespace pns::fault
