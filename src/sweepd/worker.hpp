// Pull-worker for the sweep daemon (`pns_sweep worker --connect ...`).
//
// A worker holds no state the daemon depends on: it connects, announces
// itself, and then pulls leases until told there is nothing left. Each
// lease carries the job's full JobSpec plus the global row indices to
// execute, so the worker expands the very same scenario list the daemon
// holds (shared preset + registry code, pinned by the sweep identity) and
// runs the leased subset on a local SweepRunner -- streaming every row
// back the moment it completes, in completion order. The daemon re-orders
// by global index, so worker count, speed and interleaving never show in
// the output.
//
// Reuse: the expansion is kept for as long as leases keep naming the
// same job identity. The runner's per-thread scenario-asset caches are
// kept for the whole worker run, across jobs and reconnects, so later
// leases -- of this job or of a job sharing its weather -- reuse the
// traces earlier leases synthesised. The caches' epoch cap (32 traces
// per thread) bounds their memory; reuse is bit-identical to
// rebuilding.
//
// Self-healing: each connection has one heartbeat thread that beacons
// the daemon while a lease executes and sleeps between leases, so a
// slow-but-alive worker never loses its lease to the liveness timeout. When the connection drops, the worker keeps
// computing, buffers every completed row, reconnects with exponential
// backoff + deterministic jitter, and redelivers the buffered rows --
// the daemon drops any it already journalled (idempotent), so a flaky
// network costs retries, never rows and never output bytes.
//
// Crash model: a worker that dies for good simply stops sending rows;
// the daemon re-leases the remainder after the lease timeout. Rows it
// did deliver were journalled on arrival and are kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "util/fault.hpp"
#include "util/socket.hpp"

namespace pns::sweepd {

struct WorkerOptions {
  net::Endpoint endpoint;  ///< daemon address to connect to
  /// SweepRunner threads per lease; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Exit once the daemon has no unfinished jobs, instead of polling
  /// for future submissions. Rows leased to *other* workers keep a
  /// `once` worker polling -- they may come back for re-leasing.
  bool once = false;
  /// Heartbeat period while a lease executes; 0 derives it from the
  /// lease timeout the daemon announces (timeout / 3).
  double heartbeat_s = 0.0;
  /// Reconnect attempts before giving up for good. 0 = die on the
  /// first disconnect (the pre-self-healing behaviour).
  std::size_t max_reconnects = 8;
  /// Exponential backoff between reconnect attempts: the k-th retry
  /// waits base * 2^(k-1), capped, then scaled by a deterministic
  /// jitter factor in [0.5, 1.5) drawn from `backoff_seed`.
  double backoff_base_s = 0.1;
  double backoff_cap_s = 5.0;
  std::uint64_t backoff_seed = 1;
  /// Diagnostic sink (one line per event); null = silent.
  std::function<void(const std::string&)> log;
  /// Optional fault injector attached to every daemon connection
  /// (forced short reads/writes, EINTR storms, mid-frame drops) -- the
  /// worker half of `--fault` chaos runs.
  std::shared_ptr<fault::FaultInjector> fault;
};

/// What one worker session accomplished.
struct WorkerReport {
  std::size_t leases = 0;       ///< leases executed to completion
  std::size_t rows = 0;         ///< rows computed and sent
  std::size_t failed = 0;       ///< rows whose scenario failed (ok == false)
  std::size_t reconnects = 0;   ///< sessions re-established after a drop
  std::size_t redelivered = 0;  ///< buffered rows re-sent on reconnect
  /// Scenario-asset lookups (weather traces) served from / added to the
  /// worker's caches (sweep::ScenarioAssets::hits/misses).
  std::size_t asset_hits = 0;
  std::size_t asset_misses = 0;
};

/// Runs the worker loop until the daemon says goodbye, the work runs dry
/// (with `once`), or the connection drops `max_reconnects + 1` times.
/// Throws net::SocketError when the *initial* connection cannot be
/// established and ProtocolError when the daemon speaks an unexpected
/// dialect or the reconnect budget is exhausted.
WorkerReport run_worker(const WorkerOptions& options);

}  // namespace pns::sweepd
