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
#include <cstdlib>
#include <cstring>
#include <string>

#include "sweepd/daemon.hpp"

namespace {

using namespace pns;

void usage(const char* argv0) {
  std::printf(
      "usage: %s --listen ENDPOINT [options]\n"
      "\n"
      "  --listen EP        address to serve: unix:PATH, tcp:PORT or\n"
      "                     tcp:HOST:PORT (tcp:0 = ephemeral port,\n"
      "                     printed on startup)\n"
      "\n"
      "options:\n"
      "  --state-dir DIR    job specs + checkpoint journals live here\n"
      "                     (default: current directory); restarting with\n"
      "                     the same dir resumes every job\n"
      "  --fsync            fsync the journal after every accepted row, so\n"
      "                     acknowledged rows survive a machine crash (not\n"
      "                     just a daemon crash); costs a disk round-trip\n"
      "                     per row\n"
      "  --lease-timeout S  re-lease a worker's rows when no result arrived\n"
      "                     for S seconds (default 120)\n"
      "  --lease-rows N     rows per lease; 0 = the larger of the job's rows\n"
      "                     and all jobs' pending rows / (2 x connected\n"
      "                     workers), rounded up: two waves per worker,\n"
      "                     whole jobs while the queue is deep (default)\n"
      "  --idle-poll S      poll-again hint sent to idle workers\n"
      "                     (default 0.5)\n"
      "  --fault SPEC       deterministic fault injection for chaos runs\n"
      "                     (docs/fault-injection.md), e.g.\n"
      "                     fault:seed=7,torn_append=0.1,fsync_fail=2\n"
      "  --quiet            suppress the per-event log on stderr\n",
      argv0);
}

sweepd::Daemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon) g_daemon->stop();
}

}  // namespace

int main(int argc, char** argv) {
  sweepd::DaemonOptions opt;
  bool quiet = false;
  bool have_listen = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--listen") {
      const std::string spec = next();
      try {
        opt.endpoint = net::Endpoint::parse(spec);
        have_listen = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "invalid --listen '%s': %s\n", spec.c_str(),
                     e.what());
        return 2;
      }
    } else if (arg == "--state-dir")
      opt.state_dir = next();
    else if (arg == "--fsync")
      opt.fsync_journal = true;
    else if (arg == "--lease-timeout")
      opt.lease_timeout_s = std::atof(next());
    else if (arg == "--lease-rows")
      opt.lease_rows = static_cast<std::size_t>(std::atoll(next()));
    else if (arg == "--idle-poll")
      opt.idle_poll_s = std::atof(next());
    else if (arg == "--fault") {
      const std::string spec = next();
      try {
        opt.fault = fault::make_injector(spec);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "invalid --fault '%s': %s\n", spec.c_str(),
                     e.what());
        return 2;
      }
    } else if (arg == "--quiet")
      quiet = true;
    else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (!have_listen) {
    usage(argv[0]);
    return 2;
  }
  if (!quiet) {
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
