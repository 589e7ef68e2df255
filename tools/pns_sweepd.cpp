// pns_sweepd -- the sweep daemon.
//
// Serves the JSON-lines sweep protocol (docs/sweepd.md): clients submit
// jobs and stream results, pull-workers lease rows and push them back,
// and every accepted row is checkpointed to the job's journal in
// --state-dir before it is acknowledged. Restarting the daemon with the
// same state dir resumes every job from its journal.
//
//   pns_sweepd --listen tcp:7654 --state-dir /var/lib/pns
//   pns_sweepd --listen unix:/tmp/sweepd.sock --state-dir . --fsync
//
// Then, from anywhere that can reach it:
//
//   pns_sweep worker --connect tcp:daemon-host:7654
//   pns_sweep submit quick --connect tcp:daemon-host:7654
//   pns_sweep results job-1 --connect tcp:daemon-host:7654 --csv out.csv
//
// With --listen tcp:0 the kernel picks the port; the resolved address is
// printed as the first stdout line, so scripts can scrape it.
#include <csignal>
#include <cstdio>
#include <string>

#include "flag_table.hpp"
#include "sweepd/daemon.hpp"
#include "util/params.hpp"

namespace {

using namespace pns;

struct Options {
  sweepd::DaemonOptions daemon;
  bool listen = false;
  bool quiet = false;
};

constexpr cli::Flag<Options> kFlags[] = {
    {"--listen", "EP",
     [](auto& o, auto& f, auto& v) {
       o.daemon.endpoint = cli::parse_value(f, v, net::Endpoint::parse);
       o.listen = true;
     },
     "unix:PATH, tcp:PORT or tcp:HOST:PORT (tcp:0: a free port)"},
    {"--state-dir", "DIR",
     [](auto& o, auto&, auto& v) { o.daemon.state_dir = v; },
     "job specs and journals (default .), resumed on restart"},
    {"--fsync", nullptr,
     [](auto& o, auto&, auto&) { o.daemon.fsync_journal = true; },
     "fsync the journal after every accepted row"},
    {"--lease-timeout", "S",
     [](auto& o, auto& f, auto& v) {
       o.daemon.lease_timeout_s = parse_number(f, v, NumberSign::kPositive);
     },
     "re-lease rows after S s without a result (default 120)"},
    {"--lease-rows", "N",
     [](auto& o, auto& f, auto& v) { o.daemon.lease_rows = parse_count(f, v); },
     "rows per lease (default 0: two waves per worker)"},
    {"--idle-poll", "S",
     [](auto& o, auto& f, auto& v) {
       o.daemon.idle_poll_s = parse_number(f, v, NumberSign::kPositive);
     },
     "poll-again hint sent to idle workers (default 0.5)"},
    {"--fault", "SPEC",
     [](auto& o, auto& f, auto& v) {
       o.daemon.fault = cli::parse_value(f, v, fault::make_injector);
     },
     "deterministic fault injection (docs/fault-injection.md)"},
    {"--quiet", nullptr, [](auto& o, auto&, auto&) { o.quiet = true; },
     "suppress the per-event log on stderr"},
};

void usage(const char* argv0) {
  std::printf("usage: %s --listen EP [options]\n\noptions:\n", argv0);
  cli::print_flags<Options>(kFlags);
}

sweepd::Daemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon) g_daemon->stop();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  cli::parse(argc, argv, 1, kFlags, options, false, usage);
  if (!options.listen) {
    usage(argv[0]);
    return 2;
  }
  sweepd::DaemonOptions& opt = options.daemon;
  if (!options.quiet) {
    opt.log = [](const std::string& line) {
      std::fprintf(stderr, "pns_sweepd: %s\n", line.c_str());
    };
  }

  try {
    sweepd::Daemon daemon(opt);
    daemon.bind();

    // The resolved serving address, scrapeable by scripts (tcp:0 was
    // replaced by the kernel's choice at bind time).
    net::Endpoint bound = opt.endpoint;
    if (bound.kind == net::Endpoint::Kind::kTcp)
      bound.port = daemon.port();
    std::printf("listening on %s\n", bound.to_string().c_str());
    std::fflush(stdout);

    g_daemon = &daemon;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGPIPE, SIG_IGN);

    daemon.run();
    g_daemon = nullptr;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pns_sweepd: %s\n", e.what());
    return 1;
  }
  return 0;
}
