// The sweep daemon: a long-running, restartable sweep service.
//
// `pns_sweepd` turns the batch sweep runner into a service: clients
// submit JobSpecs over the JSON-lines protocol while other sweeps are in
// flight, pull-based workers lease row sets sized by the journalled-cost
// LPT planner (sweep/runner.hpp plan_shards) and push completed rows
// back, and subscribed clients receive each row as it lands. Every
// accepted row is appended to the job's canonical checkpoint journal
// (sweep/journal.hpp, identity-pinned, optionally fsynced) *before* it
// is acknowledged anywhere, so a daemon crash loses nothing: restarting
// with the same --state-dir reloads every job from its spec file +
// journal and re-leases only the missing rows.
//
// Determinism contract: the daemon never runs scenarios and never
// reduces rows -- it only routes them. A job's aggregate is assembled
// from journalled rows in global spec order, which (with the bit-exact
// row JSON round-trip, aggregate.hpp) makes a distributed run's output
// byte-identical to a single-machine `pns_sweep` run of the same spec,
// regardless of worker count, speed, disconnects or duplicated results.
//
// Threading: the daemon is single-threaded (one poll() loop); stop() is
// the only member safe to call from other threads or signal handlers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sweep/journal.hpp"
#include "sweepd/job.hpp"
#include "sweepd/protocol.hpp"
#include "util/fault.hpp"
#include "util/socket.hpp"

namespace pns::sweepd {

struct DaemonOptions {
  net::Endpoint endpoint;
  /// Where job spec files and checkpoint journals live; "" = current
  /// directory. One daemon per state dir.
  std::string state_dir = ".";
  /// fsync every journal append (JournalDurability::kFsync): an
  /// acknowledged row then survives a machine crash, not just a daemon
  /// crash. Off by default -- a disk round-trip per row.
  bool fsync_journal = false;
  /// Rows leased to a worker are returned to the pending pool when no
  /// result arrived for this long -- the crashed-worker recovery path.
  double lease_timeout_s = 120.0;
  /// Rows per lease; 0 sizes leases automatically as
  /// ceil(max(job rows, pending rows of all jobs) / (2 x connected
  /// workers)), capped by the job's pending pool -- two waves per worker
  /// over the whole queue: a deep queue is leased a job at a time, and a
  /// lone job in leases sized by the job rather than by its shrinking
  /// pending pool (smaller leases = finer rebalancing, more round trips).
  std::size_t lease_rows = 0;
  /// Poll-again hint sent to idle workers.
  double idle_poll_s = 0.5;
  /// Diagnostic sink (one line per event); null = silent.
  std::function<void(const std::string&)> log;
  /// Optional fault injector threaded into every journal writer (torn
  /// appends, failed fsyncs) -- the daemon half of `--fault` chaos runs.
  std::shared_ptr<fault::FaultInjector> fault;
};

/// Point-in-time view of one connected worker, as reported to `status`
/// clients (the per-worker liveness block of `pns_sweep status`).
struct WorkerLiveness {
  std::size_t worker = 0;      ///< daemon-assigned ordinal (1-based)
  unsigned threads = 0;        ///< worker-reported scenario threads
  std::size_t leases = 0;      ///< leases currently held
  std::size_t rows = 0;        ///< rows accepted from this connection
  std::size_t duplicates = 0;  ///< redundant rows dropped idempotently
  std::size_t retries = 0;     ///< worker-reported reconnect count
  double last_seen_s = 0.0;    ///< seconds since last message/heartbeat
};

/// Point-in-time view of one job, as reported to `status` clients.
struct JobStatus {
  std::string job;
  std::string identity;
  std::size_t total = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t pending = 0;     ///< unleased, unfinished rows
  std::size_t leased = 0;      ///< rows currently out on leases
  std::size_t duplicates = 0;  ///< redundant results accepted idempotently
  bool complete = false;
};

/// The daemon. Construct, bind(), then run() on the serving thread.
class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the listening socket and reloads jobs from the state dir.
  /// Throws net::SocketError / JobError / sweep::JournalError.
  void bind();

  /// The bound TCP port (after bind(); resolves an ephemeral port 0).
  std::uint16_t port() const;

  /// Serves until stop() or a client `shutdown` message. bind() must
  /// have been called.
  void run();

  /// Wakes run() and makes it return after the current poll iteration.
  /// Safe from other threads and signal handlers (a single write()).
  void stop();

  /// Snapshot of every job, in creation order (test/status hook; not
  /// thread-safe -- call from the serving thread or around run()).
  std::vector<JobStatus> jobs() const;

  /// True while the daemon is refusing to lease because its state dir
  /// stopped accepting journal appends (degraded mode). Test hook; same
  /// threading caveat as jobs().
  bool degraded() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pns::sweepd
