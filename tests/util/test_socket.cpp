// Tests of LineConn's fault seams and interrupted-syscall handling
// (util/socket.hpp): EINTR storms, forced short reads/writes and
// injected connection drops, driven over a local socketpair. The real
// EINTR path and the injected one share the same retry edge in the
// io_recv/io_send funnels, so exercising the injector exercises the
// uniform EINTR/EAGAIN handling the daemon and workers rely on.
#include <sys/socket.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/fault.hpp"
#include "util/socket.hpp"

namespace pns::net {
namespace {

/// A connected AF_UNIX stream pair wrapped in LineConns.
struct Pair {
  Pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a.emplace(Socket(fds[0]));
    b.emplace(Socket(fds[1]));
  }
  std::optional<LineConn> a, b;
};

TEST(Endpoint, ParsesTheThreeSpellings) {
  const Endpoint u = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  const Endpoint p = Endpoint::parse("tcp:7654");
  EXPECT_EQ(p.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(p.port, 7654);
  const Endpoint hp = Endpoint::parse("tcp:example.org:80");
  EXPECT_EQ(hp.host, "example.org");
  EXPECT_EQ(hp.port, 80);
  EXPECT_THROW(Endpoint::parse("tcp:"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("unix:"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("carrier-pigeon:coop"),
               std::invalid_argument);
  // A port is digits only and at most 65535: no sign, blank or suffix.
  for (const char* bad :
       {"tcp:+80", "tcp: 80", "tcp:-0", "tcp:80 ", "tcp:0x50", "tcp:8o",
        "tcp:65536", "tcp:99999999999999999999", "tcp:host:+80",
        "tcp:host:-0", "tcp:host:", "tcp::80", "localhost:-1"}) {
    EXPECT_THROW(Endpoint::parse(bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(Endpoint::parse("tcp:65535").port, 65535);
  EXPECT_EQ(Endpoint::parse("localhost:080").port, 80);
}

TEST(LineConnFault, EintrStormsNeverBreakFramingOrProgress) {
  Pair pair;
  // p=0.9 EINTR storms on both directions: every recv/send retries
  // through bursts of injected interrupts, exactly like a process being
  // peppered with signals mid-syscall.
  pair.a->set_fault(
      fault::make_injector("fault:seed=11,eintr=0.9"));
  pair.b->set_fault(
      fault::make_injector("fault:seed=12,eintr=0.9"));

  std::vector<std::string> sent;
  for (int k = 0; k < 200; ++k)
    sent.push_back("line-" + std::to_string(k) + "-" +
                   std::string(static_cast<std::size_t>(k % 17), 'x'));

  std::thread writer([&] {
    for (const std::string& line : sent)
      ASSERT_TRUE(pair.a->send_line_blocking(line));
  });
  std::vector<std::string> got;
  while (got.size() < sent.size()) {
    std::optional<std::string> line = pair.b->recv_line_blocking();
    ASSERT_TRUE(line.has_value());
    got.push_back(*std::move(line));
  }
  writer.join();
  EXPECT_EQ(got, sent);
}

TEST(LineConnFault, ShortReadsAndWritesReassembleLargeLinesIntact) {
  Pair pair;
  // Every send and recv is clamped to a random short budget (p=1), so a
  // 64 KB line crosses the socket in many ragged fragments; framing must
  // reassemble every byte in order.
  auto fa = fault::make_injector(
      "fault:seed=21,short_read=1,short_write=1");
  auto fb = fault::make_injector(
      "fault:seed=22,short_read=1,short_write=1");
  pair.a->set_fault(fa);
  pair.b->set_fault(fb);

  std::vector<std::string> sent;
  for (int k = 0; k < 8; ++k) {
    std::string line;
    line.reserve(64u << 10);
    while (line.size() < (64u << 10))
      line += "payload-" + std::to_string(k) + "-" +
              std::to_string(line.size()) + ";";
    sent.push_back(std::move(line));
  }

  std::thread writer([&] {
    for (const std::string& line : sent)
      ASSERT_TRUE(pair.a->send_line_blocking(line));
  });
  std::vector<std::string> got;
  while (got.size() < sent.size()) {
    std::optional<std::string> line = pair.b->recv_line_blocking();
    ASSERT_TRUE(line.has_value());
    got.push_back(*std::move(line));
  }
  writer.join();
  EXPECT_EQ(got, sent);
  // The clamps genuinely fired -- this was not a clean-path walkover.
  EXPECT_GT(fa->stats(fault::FaultSite::kShortWrite).hits, 8u);
  EXPECT_GT(fb->stats(fault::FaultSite::kShortRead).hits, 8u);
}

TEST(LineConnFault, InjectedDropLooksLikeADeadPeer) {
  {  // drop on send: the blocking sender sees the peer as gone
    Pair pair;
    pair.a->set_fault(fault::make_injector("fault:seed=5,conn_drop=1"));
    EXPECT_FALSE(pair.a->send_line_blocking("doomed"));
    EXPECT_FALSE(pair.a->valid());  // severed, not merely failed once
  }
  {  // drop on recv: the blocking receiver sees end of conversation
    Pair pair;
    pair.b->set_fault(fault::make_injector("fault:seed=5,conn_drop=1"));
    ASSERT_TRUE(pair.a->send_line_blocking("hello"));
    EXPECT_FALSE(pair.b->recv_line_blocking().has_value());
  }
}

TEST(LineConnFault, MidFrameDropLeavesATornPrefixForThePeer) {
  // The injected sever pushes half the frame first, modelling what a
  // dying host's kernel may already have flushed. The peer must treat
  // the torn tail as an unterminated line, not deliver it.
  Pair pair;
  pair.a->set_fault(fault::make_injector("fault:seed=5,conn_drop=1"));
  const std::string line(100, 'z');
  EXPECT_FALSE(pair.a->send_line_blocking(line));
  std::vector<std::string> got;
  IoStatus st;
  do {
    st = pair.b->read_lines(got);
  } while (st == IoStatus::kOk && got.empty());
  EXPECT_EQ(st, IoStatus::kClosed);
  EXPECT_TRUE(got.empty());  // a torn prefix is not a line
}

TEST(LineConnFault, SameSeedSameWorkloadSameInjections) {
  // The full determinism contract at the socket layer: identical
  // workloads against same-seed injectors draw identical decisions.
  const std::string spec =
      "fault:seed=33,short_read=0.5,short_write=0.5,eintr=0.3";
  std::vector<std::uint64_t> counts[2];
  for (int run = 0; run < 2; ++run) {
    Pair pair;
    auto inj = fault::make_injector(spec);
    pair.a->set_fault(inj);
    std::thread reader([&] {
      for (int k = 0; k < 50; ++k)
        if (!pair.b->recv_line_blocking()) return;
    });
    for (int k = 0; k < 50; ++k)
      ASSERT_TRUE(
          pair.a->send_line_blocking(std::string(1000 + 13 * k, 'q')));
    reader.join();
    for (const auto site :
         {fault::FaultSite::kShortWrite, fault::FaultSite::kEintr}) {
      counts[run].push_back(inj->stats(site).ops);
      counts[run].push_back(inj->stats(site).hits);
    }
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(counts[0][1], 0u);  // short writes actually fired
}

}  // namespace
}  // namespace pns::net
