#include "sweepd/worker.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "sweep/assets.hpp"
#include "sweep/runner.hpp"
#include "sweepd/job.hpp"
#include "sweepd/protocol.hpp"
#include "util/rng.hpp"

namespace pns::sweepd {

namespace {

/// The job this worker last leased from: its expansion, plus the
/// per-thread scenario-asset caches (weather traces) every lease of the
/// job runs with, so they outlive a single lease. Both are dropped
/// together when a lease of another job arrives.
struct ExpandedJob {
  std::string identity;
  std::vector<sweep::ScenarioSpec> specs;
  std::vector<sweep::ScenarioAssets> assets;
};

/// Lookups served from (hits) / added to (misses) a set of caches.
std::pair<std::size_t, std::size_t> asset_counts(
    const std::vector<sweep::ScenarioAssets>& caches) {
  std::pair<std::size_t, std::size_t> n{0, 0};
  for (const sweep::ScenarioAssets& a : caches) {
    n.first += a.hits();
    n.second += a.misses();
  }
  return n;
}

/// Thrown when the daemon link drops mid-session: run_worker's outer
/// loop catches it and enters the reconnect path. Derives from
/// ProtocolError so the initial handshake (where there is no session to
/// heal yet) propagates it unchanged to the caller.
struct ConnLost : ProtocolError {
  ConnLost() : ProtocolError("connection to daemon lost") {}
};

/// State that must survive a reconnect: the cached job (expansion and
/// asset caches) plus the redelivery buffer of row lines the daemon has not
/// yet provably processed (any later daemon reply proves processing --
/// TCP delivers in order).
struct SessionState {
  ExpandedJob cached;
  std::vector<std::string> unacked;  ///< framed row lines, oldest first
  std::string pending_done;          ///< lease_done line, "" = none
};

void log_to(const WorkerOptions& options, const std::string& line) {
  if (options.log) options.log(line);
}

/// Receives the next line or throws ConnLost: the worker protocol is
/// strictly request/response, so silence means the daemon is gone.
std::string must_recv(net::LineConn& conn) {
  std::optional<std::string> line = conn.recv_line_blocking();
  if (!line) throw ConnLost();
  return *std::move(line);
}

/// Connects and completes the hello handshake; `reconnects` rides along
/// so daemon status can report the worker's retry count.
net::LineConn dial(const WorkerOptions& options, std::size_t reconnects) {
  net::LineConn conn(net::connect_endpoint(options.endpoint));
  if (options.fault) conn.set_fault(options.fault);
  if (!conn.send_line_blocking(
          make_hello("worker", options.threads, reconnects)))
    throw ConnLost();
  const JsonValue reply = parse_message(must_recv(conn));
  if (message_type(reply) != "hello_ok")
    throw ProtocolError("expected hello_ok, got '" + message_type(reply) +
                        "'");
  return conn;
}

/// One lease executed end to end on an established connection. Rows are
/// buffered into state.unacked *before* each send, so a drop anywhere --
/// even mid-frame -- loses nothing: the runner keeps computing into the
/// buffer and everything is redelivered on reconnect.
void execute_lease(net::LineConn& conn, const WorkerOptions& options,
                   WorkerReport& report, SessionState& state,
                   const JsonValue& msg) {
  const std::string job = msg.at("job").as_string();
  const std::uint64_t lease = msg.at("lease").as_uint64();
  JobSpec spec = JobSpec::from_json(msg.at("spec"));
  const std::string identity = spec.identity();
  if (identity != state.cached.identity)
    state.cached = ExpandedJob{identity, spec.expand(), {}};

  std::vector<std::size_t> global;
  std::vector<sweep::ScenarioSpec> subset;
  for (const JsonValue& v : msg.at("indices").items()) {
    const auto i = static_cast<std::size_t>(v.as_uint64());
    if (i >= state.cached.specs.size())
      throw ProtocolError("leased index " + std::to_string(i) +
                          " out of range (spec drift between daemon "
                          "and worker?)");
    global.push_back(i);
    subset.push_back(state.cached.specs[i]);
  }
  log_to(options, job + ": leased " + std::to_string(global.size()) +
                      " rows (lease " + std::to_string(lease) + ")");
  state.pending_done = make_lease_done(job, lease);

  // Heartbeat period: explicit, or a third of the daemon's announced
  // lease timeout -- three missed beats before the lease expires.
  const JsonValue* timeout = msg.find("timeout_s");
  double hb_s = options.heartbeat_s;
  if (hb_s <= 0.0 && timeout) hb_s = timeout->as_double() / 3.0;
  if (hb_s <= 0.0) hb_s = 1.0;
  hb_s = std::max(hb_s, 0.02);

  // on_outcome runs on runner threads and the heartbeat thread writes
  // too, so every send (and the unacked buffer) is serialised here.
  std::mutex send_mutex;
  std::atomic<bool> peer_lost{false};

  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread heartbeat([&] {
    const std::string beat = make_heartbeat(job, lease);
    std::unique_lock<std::mutex> lk(hb_mutex);
    while (!hb_cv.wait_for(lk, std::chrono::duration<double>(hb_s),
                           [&] { return hb_stop; })) {
      std::lock_guard<std::mutex> send_lk(send_mutex);
      if (peer_lost.load()) continue;  // keep waiting for hb_stop
      if (!conn.send_line_blocking(beat)) peer_lost.store(true);
    }
  });

  const auto send_row = [&](std::size_t local,
                            const sweep::SweepOutcome& outcome) {
    const sweep::SummaryRow row = sweep::summarize(outcome);
    if (!row.ok) ++report.failed;
    ++report.rows;
    const std::string line =
        make_row(job, lease, global[local], outcome.wall_s, row);
    std::lock_guard<std::mutex> lk(send_mutex);
    state.unacked.push_back(line);
    if (!peer_lost.load() && !conn.send_line_blocking(line))
      peer_lost.store(true);
  };
  sweep::SweepRunnerOptions ropt;
  ropt.threads = options.threads;
  const auto [hits0, misses0] = asset_counts(state.cached.assets);
  sweep::SweepRunner(ropt).run(subset, send_row, &state.cached.assets);
  const auto [hits1, misses1] = asset_counts(state.cached.assets);
  report.asset_hits += hits1 - hits0;
  report.asset_misses += misses1 - misses0;

  {
    std::lock_guard<std::mutex> lk(hb_mutex);
    hb_stop = true;
  }
  hb_cv.notify_all();
  heartbeat.join();

  if (peer_lost.load()) throw ConnLost();
  if (!conn.send_line_blocking(state.pending_done)) throw ConnLost();
  ++report.leases;
}

/// The request/response loop of one connected session. Returns true
/// when the worker is finished for good (bye, or --once with no
/// unfinished jobs); throws ConnLost when the link drops.
bool run_session(net::LineConn& conn, const WorkerOptions& options,
                 WorkerReport& report, SessionState& state) {
  // Redeliver what the previous session left unacknowledged. The
  // daemon journalled some of these already and drops them as
  // duplicates; the rest land now. The buffer itself is cleared only
  // once a daemon reply proves the redelivery was processed.
  if (!state.unacked.empty()) {
    for (const std::string& line : state.unacked)
      if (!conn.send_line_blocking(line)) throw ConnLost();
    report.redelivered += state.unacked.size();
    if (!state.pending_done.empty() &&
        !conn.send_line_blocking(state.pending_done))
      throw ConnLost();
    log_to(options,
           "redelivered " + std::to_string(state.unacked.size()) +
               " unacknowledged row(s)");
  }

  for (;;) {
    if (!conn.send_line_blocking(make_lease_request())) throw ConnLost();
    const JsonValue msg = parse_message(must_recv(conn));
    // Any reply proves every line sent before the request -- including
    // redelivered rows and lease_done -- was processed (TCP ordering),
    // so the redelivery buffer can be retired.
    state.unacked.clear();
    state.pending_done.clear();

    const std::string& type = message_type(msg);
    if (type == "idle") {
      // `once` exits when every job is *complete*, not merely when
      // nothing is momentarily pending: rows leased to another worker
      // may yet come back for re-leasing if that worker dies.
      const JsonValue* active = msg.find("active_jobs");
      if (options.once && (!active || active->as_uint64() == 0)) {
        log_to(options, "no unfinished jobs; exiting (--once)");
        return true;
      }
      const JsonValue* poll = msg.find("poll_s");
      const double poll_s = poll ? poll->as_double() : 0.5;
      std::this_thread::sleep_for(std::chrono::duration<double>(poll_s));
      continue;
    }
    if (type == "bye") return true;
    if (type == "error")
      throw ProtocolError("daemon error: " + msg.at("error").as_string());
    if (type != "lease")
      throw ProtocolError("expected lease/idle, got '" + type + "'");

    execute_lease(conn, options, report, state, msg);
  }
}

}  // namespace

WorkerReport run_worker(const WorkerOptions& options) {
  WorkerReport report;
  SessionState state;
  Rng jitter(options.backoff_seed);

  // The initial connection propagates failures unchanged: a wrong
  // address should fail loudly (SocketError), not retry forever. A
  // ConnLost here is different -- the link was established and then
  // dropped mid-handshake, which is chaos, not configuration -- so it
  // falls through to the reconnect path like any later drop.
  std::optional<net::LineConn> conn;
  try {
    conn.emplace(dial(options, 0));
    log_to(options, "connected to " + options.endpoint.to_string());
  } catch (const ConnLost&) {
  }

  for (;;) {
    bool done = false;
    try {
      if (!conn) throw ConnLost();
      done = run_session(*conn, options, report, state);
    } catch (const ConnLost&) {
      // Self-heal: exponential backoff with deterministic jitter, then
      // redial. Each successful redial starts a fresh session that
      // first redelivers the unacknowledged rows.
      for (;;) {
        if (report.reconnects >= options.max_reconnects)
          throw ProtocolError(
              "connection to daemon lost (" +
              std::to_string(options.max_reconnects) +
              " reconnect attempts exhausted)");
        ++report.reconnects;
        const double base =
            options.backoff_base_s *
            std::pow(2.0, static_cast<double>(report.reconnects - 1));
        const double delay =
            std::min(base, options.backoff_cap_s) * jitter.uniform(0.5, 1.5);
        log_to(options, "connection lost; reconnect " +
                            std::to_string(report.reconnects) + "/" +
                            std::to_string(options.max_reconnects) +
                            " in " + std::to_string(delay) + "s");
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
        try {
          conn.emplace(dial(options, report.reconnects));
          log_to(options, "reconnected to " +
                              options.endpoint.to_string());
          break;
        } catch (const std::exception& e) {
          log_to(options, std::string("reconnect failed: ") + e.what());
        }
      }
    }
    if (done) break;
  }

  log_to(options, "worker done: " + std::to_string(report.leases) +
                      " leases, " + std::to_string(report.rows) +
                      " rows (" + std::to_string(report.failed) +
                      " failed, " + std::to_string(report.reconnects) +
                      " reconnects, " +
                      std::to_string(report.redelivered) +
                      " redelivered, " + std::to_string(report.asset_hits) +
                      " asset hits, " + std::to_string(report.asset_misses) +
                      " asset misses)");
  return report;
}

}  // namespace pns::sweepd
