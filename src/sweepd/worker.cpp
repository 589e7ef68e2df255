#include "sweepd/worker.hpp"

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

/// The job this worker last leased from and its expansion, plus the
/// per-thread scenario-asset caches (weather traces) every lease runs
/// with. A lease of another job replaces the identity and the specs
/// only: cached assets are keyed by every parameter that determines
/// them, so they stay valid across jobs, and ScenarioAssets' epoch cap
/// bounds them for a run of many jobs as it does for one large job.
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

/// The send side of one daemon connection, shared by the session's
/// thread, the runner threads streaming rows and the heartbeat thread:
/// every frame goes through one mutex, and the first failed send marks
/// the peer lost for the rest of the connection.
class SessionLink {
 public:
  explicit SessionLink(net::LineConn& conn) : conn_(conn) {}

  /// Sends one line; false once the peer is lost. A non-null `keep`
  /// receives the line first, under the same lock, even when the peer
  /// is already gone -- the redelivery buffer misses nothing.
  bool send(const std::string& line,
            std::vector<std::string>* keep = nullptr) {
    std::lock_guard<std::mutex> lk(mutex_);
    if (keep) keep->push_back(line);
    if (!lost_ && !conn_.send_line_blocking(line)) lost_ = true;
    return !lost_;
  }

 private:
  net::LineConn& conn_;
  std::mutex mutex_;
  bool lost_ = false;
};

/// One heartbeat thread for the life of a connection: it beacons the
/// lease in flight once per period and sleeps between leases, so a
/// session starts one thread however many leases it runs.
class Heartbeat {
 public:
  explicit Heartbeat(SessionLink& link)
      : link_(link), thread_([this] { loop(); }) {}

  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// Beats `beat` every `period_s` seconds, the first one period from now.
  void begin(std::string beat, double period_s) {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      beat_ = std::move(beat);
      period_s_ = period_s;
      ++lease_;
      active_ = true;
    }
    cv_.notify_all();
  }

  /// Stops beating. Once this returns no beat of the ended lease is
  /// sent: a beat in progress holds the mutex this waits for.
  void end() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      active_ = false;
    }
    cv_.notify_all();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mutex_);
    while (!stop_) {
      if (!active_) {
        cv_.wait(lk, [&] { return stop_ || active_; });
        continue;
      }
      const std::uint64_t lease = lease_;
      if (cv_.wait_for(lk, std::chrono::duration<double>(period_s_), [&] {
            return stop_ || !active_ || lease_ != lease;
          }))
        continue;
      link_.send(beat_);
    }
  }

  SessionLink& link_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::string beat_;
  double period_s_ = 1.0;
  std::uint64_t lease_ = 0;  ///< begin() count: a new lease restarts the period
  bool active_ = false;
  bool stop_ = false;
  std::thread thread_;  ///< last: starts once every member above exists
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
void execute_lease(SessionLink& link, Heartbeat& heartbeat,
                   const WorkerOptions& options, WorkerReport& report,
                   SessionState& state, const JsonValue& msg) {
  const std::string job = msg.at("job").as_string();
  const std::uint64_t lease = msg.at("lease").as_uint64();
  JobSpec spec = JobSpec::from_json(msg.at("spec"));
  std::string identity = spec.identity();
  if (identity != state.cached.identity) {
    state.cached.identity = std::move(identity);
    state.cached.specs = spec.expand();
  }

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
  heartbeat.begin(make_heartbeat(job, lease), hb_s);

  // on_outcome runs on runner threads.
  const auto send_row = [&](std::size_t local,
                            const sweep::SweepOutcome& outcome) {
    const sweep::SummaryRow row = sweep::summarize(outcome);
    if (!row.ok) ++report.failed;
    ++report.rows;
    link.send(make_row(job, lease, global[local], outcome.wall_s, row),
              &state.unacked);
  };
  sweep::SweepRunnerOptions ropt;
  ropt.threads = options.threads;
  const auto [hits0, misses0] = asset_counts(state.cached.assets);
  sweep::SweepRunner(ropt).run(subset, send_row, &state.cached.assets);
  const auto [hits1, misses1] = asset_counts(state.cached.assets);
  report.asset_hits += hits1 - hits0;
  report.asset_misses += misses1 - misses0;
  heartbeat.end();

  if (!link.send(state.pending_done)) throw ConnLost();
  ++report.leases;
}

/// The request/response loop of one connected session. Returns true
/// when the worker is finished for good (bye, or --once with no
/// unfinished jobs); throws ConnLost when the link drops.
bool run_session(net::LineConn& conn, const WorkerOptions& options,
                 WorkerReport& report, SessionState& state) {
  SessionLink link(conn);
  Heartbeat heartbeat(link);

  // Redeliver what the previous session left unacknowledged. The
  // daemon journalled some of these already and drops them as
  // duplicates; the rest land now. The buffer itself is cleared only
  // once a daemon reply proves the redelivery was processed.
  if (!state.unacked.empty()) {
    for (const std::string& line : state.unacked)
      if (!link.send(line)) throw ConnLost();
    report.redelivered += state.unacked.size();
    if (!state.pending_done.empty() && !link.send(state.pending_done))
      throw ConnLost();
    log_to(options,
           "redelivered " + std::to_string(state.unacked.size()) +
               " unacknowledged row(s)");
  }

  for (;;) {
    if (!link.send(make_lease_request())) throw ConnLost();
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

    execute_lease(link, heartbeat, options, report, state, msg);
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
