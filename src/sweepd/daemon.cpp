#include "sweepd/daemon.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <utility>

#include "sweep/runner.hpp"
#include "util/params.hpp"

namespace pns::sweepd {

namespace {

using Clock = std::chrono::steady_clock;

/// Job spec sidecar filename ("job-3" -> "job-3.spec.json").
std::string spec_filename(const std::string& job_id) {
  return job_id + ".spec.json";
}
std::string journal_filename(const std::string& job_id) {
  return job_id + ".jsonl";
}

/// Numeric suffix of a "job-N" id (N all digits, below the largest
/// uint64 so the next id cannot wrap); nullopt for anything else.
std::optional<std::uint64_t> job_number(const std::string& id) {
  if (id.rfind("job-", 0) != 0) return std::nullopt;
  try {
    return parse_count("job id", id.substr(4),
                       std::numeric_limits<std::uint64_t>::max() - 1);
  } catch (const ParamError&) {
    return std::nullopt;
  }
}

}  // namespace

struct Daemon::Impl {
  struct Job {
    /// Expands `job_spec` and marks every row pending. Throws JobError
    /// on an invalid spec or one that expands to zero scenarios.
    Job(std::string job_id, JobSpec job_spec)
        : id(std::move(job_id)),
          spec(std::move(job_spec)),
          specs(spec.expand()),
          header{spec.identity(), specs.size()} {
      if (specs.empty()) throw JobError("job expands to zero scenarios");
      for (std::size_t i = 0; i < specs.size(); ++i) pending.insert(i);
    }

    std::string id;
    JobSpec spec;
    std::vector<sweep::ScenarioSpec> specs;
    sweep::JournalHeader header;  ///< header.sweep is the job's identity

    std::map<std::size_t, sweep::SummaryRow> done;
    std::map<std::size_t, double> costs;
    std::set<std::size_t> pending;  ///< not done, not leased
    std::size_t failed = 0;
    std::size_t duplicates = 0;
    std::optional<sweep::JournalWriter> journal;

    bool complete() const { return done.size() == specs.size(); }
  };

  struct Lease {
    std::uint64_t id = 0;
    std::string job;
    std::set<std::size_t> outstanding;
    int conn_fd = -1;
    Clock::time_point deadline;
  };

  struct Conn {
    explicit Conn(net::Socket s)
        : io(std::move(s)), last_seen(Clock::now()) {}
    net::LineConn io;
    bool is_worker = false;
    unsigned threads = 0;
    std::set<std::string> watching;
    std::uint64_t lease = 0;  ///< outstanding lease id; 0 = none
    bool closing = false;     ///< close once the write buffer drains

    // Liveness bookkeeping surfaced via `status` (WorkerLiveness).
    std::size_t worker_num = 0;  ///< assigned on first worker activity
    std::size_t reconnects = 0;  ///< from hello; worker-side retry count
    std::size_t rows = 0;
    std::size_t duplicates = 0;
    Clock::time_point last_seen;
  };

  DaemonOptions options;
  net::Socket listener;
  int wake_read = -1;   ///< self-pipe: stop() writes, the loop drains
  int wake_write = -1;
  std::atomic<bool> running{false};  ///< stop() writes from other threads
  bool bound = false;

  /// Degraded mode: a journal append failed (state dir unwritable), so
  /// the daemon stops handing out leases -- it cannot uphold the
  /// journal-before-acknowledge contract -- but keeps serving status,
  /// results and watch streams from memory. Every poll iteration probes
  /// the journals; when the state dir heals, leasing resumes.
  bool degraded_mode = false;
  std::string degraded_reason;

  std::vector<std::unique_ptr<Job>> job_list;  // creation order
  std::map<std::string, Job*> jobs_by_id;
  std::uint64_t next_job = 1;
  std::size_t next_worker = 1;  ///< ordinal for WorkerLiveness::worker

  std::map<std::uint64_t, Lease> leases;
  std::uint64_t next_lease = 1;

  std::map<int, std::unique_ptr<Conn>> conns;  // keyed by fd

  explicit Impl(DaemonOptions opt) : options(std::move(opt)) {}

  ~Impl() {
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
    if (options.endpoint.kind == net::Endpoint::Kind::kUnix &&
        listener.valid())
      ::unlink(options.endpoint.path.c_str());
  }

  void log(const std::string& line) {
    if (options.log) options.log(line);
  }

  std::string state_path(const std::string& file) const {
    if (options.state_dir.empty()) return file;
    return options.state_dir + "/" + file;
  }

  sweep::JournalDurability durability() const {
    return options.fsync_journal ? sweep::JournalDurability::kFsync
                                 : sweep::JournalDurability::kFlush;
  }

  // ------------------------------------------------------------- state

  /// Registers a fully built job under its id.
  Job& install_job(std::unique_ptr<Job> job) {
    Job& ref = *job;
    jobs_by_id[ref.id] = &ref;
    job_list.push_back(std::move(job));
    if (const auto n = job_number(ref.id); n && *n >= next_job)
      next_job = *n + 1;
    return ref;
  }

  /// Creates a new job from a submitted spec: expands it, persists the
  /// spec sidecar and opens a fresh journal. Throws JobError /
  /// JournalError on invalid specs or unwritable state.
  Job& create_job(JobSpec spec) {
    auto job = std::make_unique<Job>("job-" + std::to_string(next_job),
                                     std::move(spec));

    // Spec sidecar first, then the journal: a crash between the two
    // resurfaces as an empty job on restart, never an orphan journal.
    {
      std::ofstream out(state_path(spec_filename(job->id)),
                        std::ios::trunc);
      if (!out)
        throw JobError("cannot write job spec: " +
                       state_path(spec_filename(job->id)));
      std::string doc;
      JsonWriter w(doc, JsonStyle::kCompact);
      w.begin_object();
      w.kv("job", job->id);
      w.key("spec");
      job->spec.write_json(w);
      w.end_object();
      out << doc << '\n';
    }
    job->journal = sweep::JournalWriter::create(
        state_path(journal_filename(job->id)), job->header, durability(),
        options.fault);

    log("job " + job->id + ": submitted '" + job->header.sweep + "', " +
        std::to_string(job->specs.size()) + " scenarios");
    return install_job(std::move(job));
  }

  /// Reloads one persisted job (spec sidecar + journal) at startup.
  void load_job(const std::string& spec_path) {
    std::ifstream in(spec_path);
    std::string line;
    if (!in || !std::getline(in, line))
      throw JobError("cannot read job spec: " + spec_path);
    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const JsonError& e) {
      // A truncated sidecar (crash mid-create, torn write) must not
      // read as a generic parse abort: name the file and the remedy.
      throw JobError(spec_path +
                     ": job spec file is torn or corrupt -- re-submit "
                     "the job or restore the file from a backup (" +
                     e.what() + ")");
    }
    auto job = std::make_unique<Job>(doc.at("job").as_string(),
                                     JobSpec::from_json(doc.at("spec")));
    sweep::CheckpointJournal checkpoint = sweep::CheckpointJournal::open(
        state_path(journal_filename(job->id)), job->header, job->specs,
        durability(), options.fault);
    for (const std::string& note : checkpoint.recorded.notes) log(note);
    if (checkpoint.recorded.quarantined_lines > 0)
      log("job " + job->id + ": " +
          std::to_string(checkpoint.recorded.quarantined_lines) +
          " corrupt row(s) quarantined; their scenarios re-run");
    job->done = std::move(checkpoint.recorded.rows);
    job->costs = std::move(checkpoint.recorded.costs);
    job->journal.emplace(std::move(checkpoint.writer));
    for (const auto& [i, row] : job->done) {
      job->pending.erase(i);
      if (!row.ok) ++job->failed;
    }

    log("job " + job->id + ": reloaded, " +
        std::to_string(job->done.size()) + "/" +
        std::to_string(job->specs.size()) + " rows journalled");
    install_job(std::move(job));
  }

  void load_state_dir() {
    const std::string dir =
        options.state_dir.empty() ? "." : options.state_dir;
    if (!std::filesystem::exists(dir)) {
      std::filesystem::create_directories(dir);
      return;
    }
    // Deterministic reload order: ascending job number.
    std::vector<std::pair<std::uint64_t, std::string>> found;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      const std::string suffix = ".spec.json";
      if (name.size() <= suffix.size() ||
          name.compare(name.size() - suffix.size(), suffix.size(),
                       suffix) != 0)
        continue;
      const std::string id = name.substr(0, name.size() - suffix.size());
      if (const auto n = job_number(id))
        found.emplace_back(*n, entry.path().string());
    }
    std::sort(found.begin(), found.end());
    for (const auto& [n, path] : found) {
      try {
        load_job(path);
      } catch (const std::exception& e) {
        // One corrupt job must not keep the daemon (and every other
        // job) down; it is skipped and reported.
        log("skipping " + path + ": " + e.what());
      }
    }
  }

  // ------------------------------------------------------------ leases

  std::size_t worker_count() const {
    std::size_t n = 0;
    for (const auto& [fd, conn] : conns)
      if (conn->is_worker) ++n;
    return n;
  }

  std::size_t active_job_count() const {
    std::size_t n = 0;
    for (const auto& job : job_list)
      if (!job->complete()) ++n;
    return n;
  }

  /// Picks the rows of one lease from a job's pending pool using the
  /// journalled-cost LPT planner: the pending rows are partitioned into
  /// leases of the lease size, balanced by measured wall_s (costs
  /// learned from resumed journals and rows completed so far --
  /// unmeasured rows assume the mean), and the first non-empty part
  /// becomes this lease. Re-planning happens on every grant, so
  /// re-leased rows and fresh cost data are always incorporated.
  std::vector<std::size_t> plan_lease(const Job& job) {
    const std::vector<std::size_t> pending(job.pending.begin(),
                                           job.pending.end());
    std::size_t lease_rows = options.lease_rows;
    if (lease_rows == 0) {
      // Two waves per connected worker keeps everyone busy while
      // leaving enough granularity to rebalance around a slow worker
      // (cf. Gupta et al.'s online dispatch for heterogeneous speeds).
      // The work divided into waves is the larger of the whole job and
      // the backlog of every job (guided self-scheduling, Polychronopoulos
      // & Kuck): a deep queue is dealt a job at a time, and leases shrink
      // only as the queue drains. The job's own size is the floor, so a
      // lone job's shrinking pending pool never shrinks its leases
      // geometrically toward one row.
      std::size_t backlog = 0;
      for (const auto& queued : job_list) backlog += queued->pending.size();
      const std::size_t waves = 2 * std::max<std::size_t>(worker_count(), 1);
      lease_rows = (std::max(job.specs.size(), backlog) + waves - 1) / waves;
    }
    std::size_t parts = (pending.size() + lease_rows - 1) / lease_rows;
    parts = std::max<std::size_t>(
        1, std::min(parts, pending.size()));

    std::map<std::size_t, double> positional_costs;
    for (std::size_t p = 0; p < pending.size(); ++p) {
      const auto it = job.costs.find(pending[p]);
      if (it != job.costs.end()) positional_costs[p] = it->second;
    }
    const auto parts_list =
        sweep::plan_shards(pending.size(), parts, positional_costs);
    for (const auto& part : parts_list) {
      if (part.empty()) continue;
      std::vector<std::size_t> indices;
      indices.reserve(part.size());
      for (const std::size_t p : part) indices.push_back(pending[p]);
      return indices;
    }
    return {};
  }

  /// Marks a connection as a worker and assigns its status ordinal.
  void ensure_worker(Conn& conn) {
    conn.is_worker = true;
    if (conn.worker_num == 0) conn.worker_num = next_worker++;
  }

  /// Grants a lease to the requesting worker, or reports idle.
  void grant_lease(Conn& conn) {
    // Any connection that pulls work is a worker, hello or not.
    ensure_worker(conn);
    if (degraded_mode) {
      // Leasing is paused: an accepted row could not be journalled, so
      // it could not be acknowledged. Idle replies carry the real
      // active-job count so --once workers keep polling instead of
      // declaring the sweep finished.
      send(conn, make_idle(active_job_count(), options.idle_poll_s));
      return;
    }
    for (const auto& job : job_list) {
      if (job->pending.empty()) continue;
      const std::vector<std::size_t> indices = plan_lease(*job);
      if (indices.empty()) continue;

      Lease lease;
      lease.id = next_lease++;
      lease.job = job->id;
      lease.conn_fd = conn.io.fd();
      lease.deadline = Clock::now() +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               options.lease_timeout_s));
      for (const std::size_t i : indices) {
        job->pending.erase(i);
        lease.outstanding.insert(i);
      }
      conn.lease = lease.id;
      send(conn, make_lease(job->id, lease.id, options.lease_timeout_s,
                            job->spec, indices));
      log("lease " + std::to_string(lease.id) + ": " + job->id + " rows " +
          std::to_string(indices.size()) + " -> fd " +
          std::to_string(conn.io.fd()));
      leases.emplace(lease.id, std::move(lease));
      return;
    }
    send(conn, make_idle(active_job_count(), options.idle_poll_s));
  }

  /// Returns a lease's unfinished rows to the pending pool.
  void revoke_lease(std::uint64_t lease_id, const char* why) {
    const auto it = leases.find(lease_id);
    if (it == leases.end()) return;
    Lease& lease = it->second;
    Job* job = find_job(lease.job);
    if (job) {
      for (const std::size_t i : lease.outstanding)
        if (!job->done.count(i)) job->pending.insert(i);
    }
    if (!lease.outstanding.empty())
      log("lease " + std::to_string(lease_id) + ": revoked (" + why +
          "), " + std::to_string(lease.outstanding.size()) +
          " rows re-leased");
    const auto conn_it = conns.find(lease.conn_fd);
    if (conn_it != conns.end() && conn_it->second->lease == lease_id)
      conn_it->second->lease = 0;
    leases.erase(it);
  }

  void revoke_expired_leases() {
    const auto now = Clock::now();
    std::vector<std::uint64_t> expired;
    for (const auto& [id, lease] : leases)
      if (lease.deadline <= now) expired.push_back(id);
    for (const std::uint64_t id : expired)
      revoke_lease(id, "liveness timeout");
  }

  /// Pushes a lease's deadline out by the configured timeout -- called
  /// for every row and heartbeat, so a slow-but-alive worker never
  /// loses its lease to the timeout meant for dead ones.
  void refresh_lease(std::uint64_t lease_id) {
    const auto it = leases.find(lease_id);
    if (it == leases.end()) return;
    it->second.deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               options.lease_timeout_s));
  }

  /// Poll timeout until the nearest lease deadline; -1 = indefinite.
  /// Degraded mode bounds the wait so the heal probe keeps running
  /// even with no traffic.
  int poll_timeout_ms() const {
    long long best = -1;
    if (degraded_mode)
      best = std::max<long long>(
          1, static_cast<long long>(options.idle_poll_s * 1000.0));
    if (!leases.empty()) {
      auto nearest = Clock::time_point::max();
      for (const auto& [id, lease] : leases)
        nearest = std::min(nearest, lease.deadline);
      const auto ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              nearest - Clock::now())
              .count();
      const long long lease_ms = std::clamp<long long>(ms, 0, 60'000);
      best = best < 0 ? lease_ms : std::min(best, lease_ms);
    }
    return static_cast<int>(std::min<long long>(
        best < 0 ? -1 : best, 60'000));
  }

  // ----------------------------------------------------- degraded mode

  void enter_degraded(const std::string& why) {
    if (!degraded_mode)
      log("entering degraded mode: " + why +
          " (leasing paused; status/results still served)");
    degraded_mode = true;
    degraded_reason = why;
  }

  /// Probes every job journal; leaves degraded mode when all accept
  /// writes again.
  void try_heal() {
    if (!degraded_mode) return;
    for (const auto& job : job_list)
      if (job->journal && !job->journal->probe()) return;
    degraded_mode = false;
    degraded_reason.clear();
    log("state dir healed; resuming leasing");
  }

  // -------------------------------------------------------------- rows

  Job* find_job(const std::string& id) {
    const auto it = jobs_by_id.find(id);
    return it == jobs_by_id.end() ? nullptr : it->second;
  }

  /// Accepts one worker result: journal first, then bookkeeping, then
  /// streaming. Duplicates (re-leased rows finishing twice, replayed
  /// messages) are counted and dropped -- row payloads of a
  /// deterministic sweep are identical, so dropping is lossless.
  void accept_row(Conn& conn, const JsonValue& msg) {
    const std::string job_id = msg.at("job").as_string();
    Job* job = find_job(job_id);
    if (!job) throw ProtocolError("row for unknown job '" + job_id + "'");
    const auto index = static_cast<std::size_t>(msg.at("i").as_uint64());
    if (index >= job->specs.size())
      throw ProtocolError("row index " + std::to_string(index) +
                          " out of range for " + job_id);
    sweep::SummaryRow row = sweep::summary_row_from_json(msg.at("row"));
    if (row.label != job->specs[index].label)
      throw ProtocolError(
          "row " + std::to_string(index) + " of " + job_id +
          " does not describe its scenario (worker/daemon spec "
          "mismatch?)");

    // A row is proof of life: refresh its lease so long-running
    // scenarios never expire a lease that is making progress.
    if (const JsonValue* lf = msg.find("lease"))
      refresh_lease(lf->as_uint64());

    if (job->done.count(index)) {
      ++job->duplicates;
      ++conn.duplicates;
      return;
    }

    const JsonValue* wall = msg.find("wall_s");
    const double wall_s = wall ? wall->as_double() : -1.0;

    // Journal before acknowledging anywhere: once streamed or counted
    // done, the row must survive a daemon restart. When the append
    // fails, the row is deliberately NOT acknowledged: it stays on its
    // lease, returns to pending at lease_done/revocation, and will be
    // re-leased after the state dir heals.
    try {
      job->journal->append(index, row, wall_s);
    } catch (const sweep::JournalError& e) {
      enter_degraded(e.what());
      return;
    }
    ++conn.rows;
    if (wall_s >= 0.0) job->costs[index] = wall_s;

    job->pending.erase(index);
    if (const JsonValue* lease_field = msg.find("lease")) {
      const auto it = leases.find(lease_field->as_uint64());
      if (it != leases.end()) it->second.outstanding.erase(index);
    } else {
      for (auto& [id, lease] : leases)
        if (lease.job == job->id && lease.outstanding.erase(index)) break;
    }

    if (!row.ok) ++job->failed;
    const bool completed_job =
        job->done.emplace(index, std::move(row)).second &&
        job->complete();

    // Stream to watchers (lease 0: the tag is worker-side bookkeeping).
    // The frame is encoded once, for the first watcher, and shared.
    std::string frame;
    for (auto& [fd, conn] : conns) {
      if (!conn->watching.count(job->id)) continue;
      if (frame.empty())
        frame = make_row(job->id, 0, index, -1.0, job->done.at(index));
      send(*conn, frame);
      if (completed_job) send(*conn, make_job_done(job->id, job->failed));
    }
    if (completed_job)
      log("job " + job->id + ": complete (" +
          std::to_string(job->failed) + " failed)");
  }

  // ------------------------------------------------------ connections

  void send(Conn& conn, const std::string& line) {
    conn.io.queue_line(line);
    // Opportunistic flush; leftovers go out via POLLOUT.
    conn.io.flush();
  }

  void disconnect(int fd) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    if (it->second->lease != 0)
      revoke_lease(it->second->lease, "worker disconnected");
    conns.erase(it);
  }

  JobStatus status_of(const Job& job) const {
    JobStatus s;
    s.job = job.id;
    s.identity = job.header.sweep;
    s.total = job.specs.size();
    s.done = job.done.size();
    s.failed = job.failed;
    s.pending = job.pending.size();
    s.duplicates = job.duplicates;
    s.complete = job.complete();
    for (const auto& [id, lease] : leases)
      if (lease.job == job.id) s.leased += lease.outstanding.size();
    return s;
  }

  std::vector<WorkerLiveness> worker_liveness() const {
    const auto now = Clock::now();
    std::vector<WorkerLiveness> out;
    for (const auto& [fd, conn] : conns) {
      if (!conn->is_worker) continue;
      WorkerLiveness w;
      w.worker = conn->worker_num;
      w.threads = conn->threads;
      for (const auto& [id, lease] : leases)
        if (lease.conn_fd == fd) ++w.leases;
      w.rows = conn->rows;
      w.duplicates = conn->duplicates;
      w.retries = conn->reconnects;
      w.last_seen_s =
          std::chrono::duration<double>(now - conn->last_seen).count();
      out.push_back(w);
    }
    std::sort(out.begin(), out.end(),
              [](const WorkerLiveness& a, const WorkerLiveness& b) {
                return a.worker < b.worker;
              });
    return out;
  }

  void reply_status(Conn& conn, const std::string& only_job) {
    std::string doc;
    JsonWriter w(doc, JsonStyle::kCompact);
    w.begin_object();
    w.kv("type", "status_ok");
    w.kv("workers", static_cast<std::uint64_t>(worker_count()));
    if (degraded_mode) {
      w.kv("degraded", true);
      w.kv("degraded_reason", degraded_reason);
    }
    w.key("worker_info");
    w.begin_array();
    for (const WorkerLiveness& wl : worker_liveness()) {
      w.begin_object();
      w.kv("worker", static_cast<std::uint64_t>(wl.worker));
      w.kv("threads", static_cast<std::uint64_t>(wl.threads));
      w.kv("leases", static_cast<std::uint64_t>(wl.leases));
      w.kv("rows", static_cast<std::uint64_t>(wl.rows));
      w.kv("duplicates", static_cast<std::uint64_t>(wl.duplicates));
      w.kv("retries", static_cast<std::uint64_t>(wl.retries));
      w.kv("last_seen_s", wl.last_seen_s);
      w.end_object();
    }
    w.end_array();
    w.key("jobs");
    w.begin_array();
    for (const auto& job : job_list) {
      if (!only_job.empty() && job->id != only_job) continue;
      const JobStatus s = status_of(*job);
      w.begin_object();
      w.kv("job", s.job);
      w.kv("identity", s.identity);
      w.kv("total", static_cast<std::uint64_t>(s.total));
      w.kv("done", static_cast<std::uint64_t>(s.done));
      w.kv("failed", static_cast<std::uint64_t>(s.failed));
      w.kv("pending", static_cast<std::uint64_t>(s.pending));
      w.kv("leased", static_cast<std::uint64_t>(s.leased));
      w.kv("duplicates", static_cast<std::uint64_t>(s.duplicates));
      w.kv("complete", s.complete);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    send(conn, doc);
  }

  void reply_results(Conn& conn, const std::string& job_id) {
    Job* job = find_job(job_id);
    if (!job) throw ProtocolError("unknown job '" + job_id + "'");
    send(conn, make_results_begin(job->id, job->header.sweep,
                                  job->specs.size(), job->done.size(),
                                  job->complete()));
    // Global spec order: the client can append rows straight into the
    // aggregate without sorting.
    for (const auto& [index, row] : job->done)
      send(conn, make_row(job->id, 0, index, -1.0, row));
    send(conn, make_results_end(job->id, job->failed));
  }

  void start_watch(Conn& conn, const std::string& job_id) {
    Job* job = find_job(job_id);
    if (!job) throw ProtocolError("unknown job '" + job_id + "'");
    conn.watching.insert(job->id);
    send(conn, make_watch_ok(job->id, job->specs.size(),
                             job->done.size()));
    // Replay what already landed, then live rows stream from
    // accept_row. A completed job finishes the conversation at once.
    for (const auto& [index, row] : job->done)
      send(conn, make_row(job->id, 0, index, -1.0, row));
    if (job->complete()) send(conn, make_job_done(job->id, job->failed));
  }

  /// Dispatches one message line. Throws ProtocolError (framing/routing
  /// violations: connection gets an error reply and is closed) and
  /// JobError (bad submissions: error reply, connection stays usable).
  void handle_message(Conn& conn, const std::string& line) {
    const JsonValue msg = parse_message(line);
    const std::string& type = message_type(msg);
    if (type == "hello") {
      if (msg.at("role").as_string() == "worker") ensure_worker(conn);
      if (const JsonValue* t = msg.find("threads"))
        conn.threads = static_cast<unsigned>(t->as_uint64());
      if (const JsonValue* r = msg.find("reconnects"))
        conn.reconnects = static_cast<std::size_t>(r->as_uint64());
      send(conn, make_hello_ok());
    } else if (type == "submit") {
      JobSpec spec = JobSpec::from_json(msg.at("spec"));
      Job& job = create_job(std::move(spec));
      send(conn, make_submitted(job.id, job.header.sweep, job.specs.size()));
    } else if (type == "lease_request") {
      grant_lease(conn);
    } else if (type == "row") {
      accept_row(conn, msg);
    } else if (type == "heartbeat") {
      // One-way liveness beacon: refresh the lease it names (last_seen
      // was already refreshed by the read itself). No reply -- the
      // worker's protocol reader is not expecting one.
      refresh_lease(msg.at("lease").as_uint64());
    } else if (type == "lease_done") {
      const auto lease_id = msg.at("lease").as_uint64();
      // Whatever the worker left unfinished goes back to pending.
      revoke_lease(lease_id, "lease_done with unfinished rows");
    } else if (type == "status") {
      const JsonValue* job = msg.find("job");
      reply_status(conn, job ? job->as_string() : "");
    } else if (type == "results") {
      reply_results(conn, msg.at("job").as_string());
    } else if (type == "watch") {
      start_watch(conn, msg.at("job").as_string());
    } else if (type == "shutdown") {
      send(conn, make_bye());
      log("shutdown requested");
      running.store(false);
    } else {
      throw ProtocolError("unknown message type '" + type + "'");
    }
  }

  void handle_readable(int fd) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    Conn& conn = *it->second;
    std::vector<std::string> lines;
    const net::IoStatus st = conn.io.read_lines(lines);
    if (!lines.empty()) conn.last_seen = Clock::now();
    for (const std::string& line : lines) {
      if (conn.closing) break;  // already poisoned; drain politely
      try {
        handle_message(conn, line);
      } catch (const ProtocolError& e) {
        // Framing/routing violation: this stream can't be trusted any
        // further. Tell the peer why, then drop it.
        send(conn, make_error(e.what()));
        conn.closing = true;
        log("fd " + std::to_string(fd) + ": " + e.what());
      } catch (const std::exception& e) {
        // Application-level failure (bad submission, journal IO):
        // report it, keep the connection.
        send(conn, make_error(e.what()));
        log("fd " + std::to_string(fd) + ": " + e.what());
      }
    }
    if (st == net::IoStatus::kLineTooLong && !conn.closing) {
      send(conn, make_error("line exceeds protocol limit"));
      conn.closing = true;
    }
    const bool peer_gone =
        st == net::IoStatus::kClosed || st == net::IoStatus::kError;
    if (peer_gone || (conn.closing && !conn.io.pending_write()))
      disconnect(fd);
  }

  void accept_new_connections() {
    for (;;) {
      net::Socket s = net::accept_connection(listener);
      if (!s.valid()) return;
      net::set_nonblocking(s.fd(), true);
      const int fd = s.fd();
      conns.emplace(fd, std::make_unique<Conn>(std::move(s)));
    }
  }

  // --------------------------------------------------------- the loop

  void bind() {
    if (bound) return;
    load_state_dir();
    listener = net::listen_endpoint(options.endpoint);
    net::set_nonblocking(listener.fd(), true);
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
      throw net::SocketError("pipe: " + std::string(std::strerror(errno)));
    wake_read = pipe_fds[0];
    wake_write = pipe_fds[1];
    net::set_nonblocking(wake_read, true);
    bound = true;
    log("listening on " + options.endpoint.to_string());
  }

  void run() {
    running.store(true);
    while (running.load()) {
      revoke_expired_leases();
      try_heal();

      std::vector<pollfd> fds;
      fds.push_back({listener.fd(), POLLIN, 0});
      fds.push_back({wake_read, POLLIN, 0});
      for (const auto& [fd, conn] : conns) {
        short events = POLLIN;
        if (conn->io.pending_write()) events |= POLLOUT;
        fds.push_back({fd, events, 0});
      }

      const int rc = ::poll(fds.data(), fds.size(), poll_timeout_ms());
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw net::SocketError("poll: " +
                               std::string(std::strerror(errno)));
      }

      if (fds[1].revents & POLLIN) {
        char drain[64];
        while (::read(wake_read, drain, sizeof(drain)) > 0) {
        }
      }
      if (fds[0].revents & POLLIN) accept_new_connections();

      for (std::size_t k = 2; k < fds.size(); ++k) {
        const int fd = fds[k].fd;
        const short re = fds[k].revents;
        if (re == 0) continue;
        if (re & (POLLERR | POLLHUP | POLLNVAL)) {
          // POLLHUP can still have readable data queued; try the read
          // path first so final rows of a closing worker are not lost.
          handle_readable(fd);
          if (conns.count(fd) && !(re & POLLIN)) disconnect(fd);
          continue;
        }
        if (re & POLLOUT) {
          const auto it = conns.find(fd);
          if (it != conns.end()) {
            const net::IoStatus st = it->second->io.flush();
            if (st == net::IoStatus::kClosed ||
                st == net::IoStatus::kError) {
              disconnect(fd);
              continue;
            }
            if (it->second->closing && !it->second->io.pending_write()) {
              disconnect(fd);
              continue;
            }
          }
        }
        if (re & POLLIN) handle_readable(fd);
      }
    }

    // Orderly exit: push out whatever is still buffered (bye replies,
    // final rows) with a short blocking grace pass.
    for (auto& [fd, conn] : conns) {
      if (!conn->io.pending_write()) continue;
      net::set_nonblocking(fd, false);
      conn->io.flush();
    }
    conns.clear();
  }

  void stop() {
    running.store(false);
    if (wake_write >= 0) {
      const char byte = 1;
      [[maybe_unused]] const ssize_t n = ::write(wake_write, &byte, 1);
    }
  }
};

Daemon::Daemon(DaemonOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Daemon::~Daemon() = default;

void Daemon::bind() { impl_->bind(); }

std::uint16_t Daemon::port() const {
  return net::local_port(impl_->listener);
}

void Daemon::run() { impl_->run(); }

void Daemon::stop() { impl_->stop(); }

std::vector<JobStatus> Daemon::jobs() const {
  std::vector<JobStatus> out;
  out.reserve(impl_->job_list.size());
  for (const auto& job : impl_->job_list)
    out.push_back(impl_->status_of(*job));
  return out;
}

bool Daemon::degraded() const { return impl_->degraded_mode; }

}  // namespace pns::sweepd
