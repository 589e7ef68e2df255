// Protocol-layer tests: message builders round-trip through the parser,
// malformed frames are rejected with ProtocolError (never accepted,
// never crash), JobSpecs survive their JSON form with identity intact,
// and LineConn's newline framing handles split, batched and oversized
// lines over a real socketpair.
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sweep/aggregate.hpp"
#include "sweepd/job.hpp"
#include "sweepd/protocol.hpp"
#include "util/socket.hpp"

namespace pns::sweepd {
namespace {

// ---------------------------------------------------------- messages

TEST(Protocol, BuildersRoundTripThroughParser) {
  const JsonValue hello = parse_message(make_hello("worker", 4));
  EXPECT_EQ(message_type(hello), "hello");
  EXPECT_EQ(hello.at("role").as_string(), "worker");
  EXPECT_EQ(hello.at("threads").as_uint64(), 4u);
  EXPECT_EQ(hello.at("proto").as_uint64(),
            static_cast<std::uint64_t>(kProtocolVersion));

  JobSpec spec;
  spec.preset = "quick";
  spec.minutes = 2.0;
  const JsonValue lease =
      parse_message(make_lease("job-1", 7, 30.0, spec, {3, 5, 8}));
  EXPECT_EQ(message_type(lease), "lease");
  EXPECT_EQ(lease.at("lease").as_uint64(), 7u);
  const auto& indices = lease.at("indices").items();
  ASSERT_EQ(indices.size(), 3u);
  EXPECT_EQ(indices[1].as_uint64(), 5u);
  EXPECT_EQ(JobSpec::from_json(lease.at("spec")).identity(),
            spec.identity());
}

TEST(Protocol, RowPayloadIsBitExact) {
  sweep::SummaryRow row;
  row.label = "quick/sunny/pns";
  row.ok = true;
  row.neutrality_error = -0.07518492143, row.vc_mean = 5.2999999999973;
  row.renders_per_min = 31.0 / 3.0;
  row.brownouts = 2;

  const JsonValue msg = parse_message(make_row("job-1", 9, 11, 0.25, row));
  EXPECT_EQ(msg.at("i").as_uint64(), 11u);
  EXPECT_EQ(msg.at("lease").as_uint64(), 9u);
  EXPECT_DOUBLE_EQ(msg.at("wall_s").as_double(), 0.25);
  const sweep::SummaryRow back =
      sweep::summary_row_from_json(msg.at("row"));
  EXPECT_EQ(back.label, row.label);
  // Bit-exact, not approximately equal: the distributed byte-identity
  // contract hangs on this.
  EXPECT_EQ(back.neutrality_error, row.neutrality_error);
  EXPECT_EQ(back.vc_mean, row.vc_mean);
  EXPECT_EQ(back.renders_per_min, row.renders_per_min);
  EXPECT_EQ(back.brownouts, row.brownouts);

  // lease 0 / negative wall_s are omitted from the frame entirely.
  const JsonValue bare = parse_message(make_row("job-1", 0, 3, -1.0, row));
  EXPECT_EQ(bare.find("lease"), nullptr);
  EXPECT_EQ(bare.find("wall_s"), nullptr);
}

TEST(Protocol, MalformedFramesAreRejected) {
  const char* bad[] = {
      "",                         // empty line
      "not json at all",          // garbage
      "{\"type\":\"submit\"",     // truncated document
      "[1,2,3]",                  // non-object
      "42",                       // scalar
      "{\"kind\":\"row\"}",       // object without "type"
      "{\"type\":7}",             // mistyped "type"
      "{\"type\":\"x\"}trail",    // trailing junk
  };
  for (const char* line : bad)
    EXPECT_THROW(parse_message(line), ProtocolError) << line;
}

// ----------------------------------------------------------- JobSpec

TEST(JobSpec, JsonRoundTripPreservesIdentity) {
  JobSpec spec;
  spec.preset = "table2";
  spec.minutes = 15.0;
  spec.pv_mode = ehsim::PvSource::Mode::kTabulated;
  spec.controls = {sweep::ControlSpec::parse("pns:v_q=0.04"),
                   sweep::ControlSpec::parse("gov:ondemand")};
  spec.sources = {sweep::SourceSpec::parse("shadow:depth=0.3")};
  spec.integrator = sweep::IntegratorSpec::parse("rk23pi:rtol=1e-6");
  spec.platform = sweep::PlatformSpec::parse("biglittle:big_cores=2");

  std::ostringstream os;
  JsonWriter w(os, JsonStyle::kCompact);
  spec.write_json(w);
  const JobSpec back = JobSpec::from_json(parse_json(os.str()));

  EXPECT_EQ(back.identity(), spec.identity());
  EXPECT_EQ(back.preset, "table2");
  EXPECT_EQ(back.pv_mode, ehsim::PvSource::Mode::kTabulated);
  ASSERT_EQ(back.controls.size(), 2u);
  EXPECT_EQ(back.controls[0].spec_string(),
            spec.controls[0].spec_string());
  EXPECT_EQ(back.integrator.spec_string(),
            spec.integrator.spec_string());
  EXPECT_EQ(back.platform.spec_string(), "biglittle:big_cores=2");
  // Daemon and worker must expand a travelled spec to the same list.
  EXPECT_EQ(back.expand().size(), spec.expand().size());
}

TEST(JobSpec, PlatformAbsentOnTheWireDefaultsToMono) {
  // Jobs serialised before the platform axis existed carry no
  // "platform" key; they must keep meaning the mono board.
  const JobSpec back = JobSpec::from_json(parse_json(
      "{\"preset\":\"quick\",\"minutes\":1,\"pv\":\"exact\","
      "\"controls\":[],\"sources\":[],\"integrator\":\"rk23\"}"));
  EXPECT_EQ(back.platform, sweep::PlatformSpec{});
  // And a default platform never perturbs the journal identity.
  EXPECT_EQ(back.identity().find("platform="), std::string::npos);
}

TEST(JobSpec, RejectsBadSpecs) {
  JobSpec unknown;
  unknown.preset = "no-such-preset";
  try {
    unknown.expand();
    FAIL() << "expected JobError";
  } catch (const JobError& e) {
    // The rejection must name the valid choices.
    EXPECT_NE(std::string(e.what()).find("quick"), std::string::npos);
  }

  // A window that is not finite and > 0 fails every row, so expansion
  // refuses it -- the one check local runs and submissions share.
  for (const double minutes :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    JobSpec bad_window;
    bad_window.preset = "quick";
    bad_window.minutes = minutes;
    EXPECT_THROW(bad_window.expand(), JobError) << minutes;
  }

  EXPECT_THROW(JobSpec::from_json(parse_json("{\"preset\":\"quick\"}")),
               JobError);
  EXPECT_THROW(
      JobSpec::from_json(parse_json(
          "{\"preset\":\"quick\",\"minutes\":1,\"pv\":\"maybe\","
          "\"controls\":[],\"sources\":[],\"integrator\":\"rk23\"}")),
      JobError);
  EXPECT_THROW(
      JobSpec::from_json(parse_json(
          "{\"preset\":\"quick\",\"minutes\":1,\"pv\":\"exact\","
          "\"controls\":[\"bogus:kind\"],\"sources\":[],"
          "\"integrator\":\"rk23\"}")),
      JobError);
}

// ----------------------------------------------------------- framing

/// A connected socketpair wrapped in LineConns, for framing tests
/// without a real listener.
struct Pair {
  Pair(std::size_t max_line_a = 4u << 20) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a.emplace(net::Socket(fds[0]), max_line_a);
    b.emplace(net::Socket(fds[1]));
  }
  std::optional<net::LineConn> a, b;
};

TEST(LineConn, SplitAndBatchedLinesReframe) {
  Pair p;
  // Three frames delivered as one write; a fourth arrives in two
  // pieces. The reader must yield exactly the four payloads.
  ASSERT_TRUE(p.b->send_line_blocking("one"));
  ASSERT_TRUE(p.b->send_line_blocking("two"));
  ASSERT_TRUE(p.b->send_line_blocking("three"));
  EXPECT_EQ(p.a->recv_line_blocking(), "one");

  net::set_nonblocking(p.a->fd(), true);
  std::vector<std::string> lines;
  EXPECT_EQ(p.a->read_lines(lines), net::IoStatus::kOk);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "two");
  EXPECT_EQ(lines[1], "three");

  const std::string part1 = "fou";
  const std::string part2 = "r\n";
  ASSERT_EQ(::send(p.b->fd(), part1.data(), part1.size(), 0),
            static_cast<ssize_t>(part1.size()));
  lines.clear();
  EXPECT_EQ(p.a->read_lines(lines), net::IoStatus::kOk);
  EXPECT_TRUE(lines.empty());  // incomplete frame: nothing yielded yet
  ASSERT_EQ(::send(p.b->fd(), part2.data(), part2.size(), 0),
            static_cast<ssize_t>(part2.size()));
  EXPECT_EQ(p.a->read_lines(lines), net::IoStatus::kOk);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "four");
}

TEST(LineConn, OversizedLineIsFatalNotAccepted) {
  Pair p(/*max_line_a=*/64);
  const std::string big(1000, 'x');
  ASSERT_TRUE(p.b->send_line_blocking(big));
  net::set_nonblocking(p.a->fd(), true);
  std::vector<std::string> lines;
  net::IoStatus st = net::IoStatus::kOk;
  // Drive until the overflow is detected (non-blocking: may take
  // several reads).
  for (int i = 0; i < 100 && st == net::IoStatus::kOk; ++i)
    st = p.a->read_lines(lines);
  EXPECT_EQ(st, net::IoStatus::kLineTooLong);
  EXPECT_TRUE(lines.empty());
}

TEST(LineConn, EofAfterFinalLineIsDelivered) {
  Pair p;
  ASSERT_TRUE(p.b->send_line_blocking("last"));
  p.b->close();
  EXPECT_EQ(p.a->recv_line_blocking(), "last");
  EXPECT_EQ(p.a->recv_line_blocking(), std::nullopt);
}

}  // namespace
}  // namespace pns::sweepd
