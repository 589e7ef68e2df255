// Chaos tests of the sweep fabric: an in-process daemon and its workers
// run under scripted fault schedules (util/fault.hpp) -- connection
// drops, short reads/writes, EINTR storms, torn journal appends, failed
// fsyncs, a worker killed mid-lease -- and the run must still finish
// with output byte-identical to an undisturbed single-machine sweep.
// Every schedule is seeded, so a failure here replays exactly.
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sweep/aggregate.hpp"
#include "sweep/journal.hpp"
#include "sweep/runner.hpp"
#include "sweepd/client.hpp"
#include "sweepd/daemon.hpp"
#include "sweepd/protocol.hpp"
#include "sweepd/worker.hpp"
#include "util/fault.hpp"
#include "util/socket.hpp"

namespace pns::sweepd {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& stem) {
    path_ = (fs::temp_directory_path() /
             (stem + "-" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

JobSpec quick_job() {
  JobSpec spec;
  spec.preset = "quick";
  spec.minutes = 1.0;
  return spec;
}

std::map<std::size_t, sweep::SummaryRow> local_rows(const JobSpec& spec) {
  sweep::SweepRunnerOptions opt;
  opt.threads = 2;
  const auto outcomes = sweep::SweepRunner(opt).run(spec.expand());
  std::map<std::size_t, sweep::SummaryRow> rows;
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    rows.emplace(i, sweep::summarize(outcomes[i]));
  return rows;
}

std::string canonical_bytes(
    const std::string& identity, std::size_t total,
    const std::map<std::size_t, sweep::SummaryRow>& rows) {
  TempDir dir("pns-chaos-canon");
  const std::string path = dir.path() + "/canon.jsonl";
  sweep::write_canonical_journal(path,
                                 sweep::JournalHeader{identity, total},
                                 rows);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string csv_bytes(const std::map<std::size_t, sweep::SummaryRow>& rows) {
  std::vector<sweep::SummaryRow> ordered;
  for (const auto& [i, row] : rows) ordered.push_back(row);
  std::ostringstream os;
  sweep::Aggregator(ordered).write_csv(os);
  return os.str();
}

/// In-process daemon with optional journal-side fault injection.
class ChaosDaemon {
 public:
  ChaosDaemon(const std::string& state_dir,
              std::shared_ptr<fault::FaultInjector> fault,
              bool fsync = false, double lease_timeout_s = 30.0,
              std::size_t lease_rows = 0,
              std::function<void(const std::string&)> log = {}) {
    options_.endpoint = net::Endpoint::parse("tcp:127.0.0.1:0");
    options_.state_dir = state_dir;
    options_.fault = std::move(fault);
    options_.fsync_journal = fsync;
    options_.lease_timeout_s = lease_timeout_s;
    options_.lease_rows = lease_rows;
    options_.log = std::move(log);
    options_.idle_poll_s = 0.02;
    daemon_.emplace(options_);
    daemon_->bind();
    thread_ = std::thread([this] { daemon_->run(); });
  }

  ~ChaosDaemon() { stop(); }

  net::Endpoint endpoint() const {
    return net::Endpoint::parse("tcp:127.0.0.1:" +
                                std::to_string(daemon_->port()));
  }

  void stop() {
    if (thread_.joinable()) {
      daemon_->stop();
      thread_.join();
    }
  }

  Daemon& daemon() { return *daemon_; }

 private:
  DaemonOptions options_;
  std::optional<Daemon> daemon_;
  std::thread thread_;
};

/// A fault-injected worker tuned for test time scales.
WorkerOptions chaos_worker(const net::Endpoint& ep,
                           const std::string& fault_spec,
                           std::uint64_t backoff_seed) {
  WorkerOptions w;
  w.endpoint = ep;
  w.threads = 2;
  w.once = true;
  w.heartbeat_s = 0.05;
  w.max_reconnects = 50;
  w.backoff_base_s = 0.005;
  w.backoff_cap_s = 0.05;
  w.backoff_seed = backoff_seed;
  w.fault = fault::make_injector(fault_spec);
  return w;
}

void expect_results_equal_local(const net::Endpoint& ep,
                                const std::string& job,
                                const JobSpec& spec) {
  const ResultsReport report = fetch_results(ep, job);
  ASSERT_TRUE(report.complete);
  const auto local = local_rows(spec);
  ASSERT_EQ(report.rows.size(), local.size());
  EXPECT_EQ(canonical_bytes(report.identity, report.total, report.rows),
            canonical_bytes(spec.identity(), local.size(), local));
  EXPECT_EQ(csv_bytes(report.rows), csv_bytes(local));
}

// ----------------------------------------------------------- the big one

/// One seeded chaos storm: daemon-side torn appends + one failed fsync,
/// two workers under connection drops / short IO / EINTR storms, plus a
/// deterministic mid-run worker kill. Leaves the finished run's
/// canonical-journal bytes in *out (gtest ASSERTs force a void return).
void run_chaos_storm(std::uint64_t seed, std::string* out) {
  TempDir state("pns-chaos-storm-" + std::to_string(seed));
  const JobSpec spec = quick_job();
  const auto local = local_rows(spec);

  auto daemon_fault = fault::make_injector(
      "fault:seed=" + std::to_string(seed) +
      ",torn_append=0.15,fsync_fail=3");
  ChaosDaemon cd(state.path(), daemon_fault, /*fsync=*/true);
  const net::Endpoint ep = cd.endpoint();

  // Submission itself may be rejected when the fault schedule tears the
  // journal header write: the daemon reports it cleanly and a retrying
  // client (us) just submits again -- still fully deterministic.
  SubmitResult submitted;
  for (int attempt = 0;; ++attempt) {
    try {
      submitted = submit_job(ep, spec);
      break;
    } catch (const ProtocolError&) {
      ASSERT_LT(attempt, 50);
    }
  }

  // The deterministic mid-run kill: a worker takes a lease, delivers
  // exactly one row, and dies without lease_done.
  {
    net::LineConn victim(net::connect_endpoint(ep));
    ASSERT_TRUE(victim.send_line_blocking(make_hello("worker", 1)));
    auto hello = victim.recv_line_blocking();
    ASSERT_TRUE(hello.has_value());
    ASSERT_TRUE(victim.send_line_blocking(make_lease_request()));
    auto line = victim.recv_line_blocking();
    ASSERT_TRUE(line.has_value());
    const JsonValue lease = parse_message(*line);
    ASSERT_EQ(message_type(lease), "lease");
    const auto first = static_cast<std::size_t>(
        lease.at("indices").items()[0].as_uint64());
    ASSERT_TRUE(victim.send_line_blocking(
        make_row(submitted.job, lease.at("lease").as_uint64(), first, 0.1,
                 local.at(first))));
  }  // closed: mid-lease death, lease revoked on disconnect

  // Two self-healing workers under socket-level chaos finish the job.
  const std::string worker_fault =
      "fault:seed=" + std::to_string(seed + 100) +
      ",conn_drop=0.01,short_read=0.2,short_write=0.2,eintr=0.2";
  WorkerOptions w1 = chaos_worker(ep, worker_fault, seed + 1);
  WorkerOptions w2 = chaos_worker(
      ep,
      "fault:seed=" + std::to_string(seed + 200) +
          ",conn_drop=0.01,short_read=0.2,short_write=0.2,eintr=0.2",
      seed + 2);
  WorkerReport r1, r2;
  std::thread t1([&] { r1 = run_worker(w1); });
  std::thread t2([&] { r2 = run_worker(w2); });
  t1.join();
  t2.join();

  // The chaos genuinely happened -- this was not a clean-path walkover.
  EXPECT_GT(daemon_fault->total_hits() + w1.fault->total_hits() +
                w2.fault->total_hits(),
            0u);

  // And the output is as if none of it had: byte-identical to local.
  expect_results_equal_local(ep, submitted.job, spec);

  const ResultsReport results = fetch_results(ep, submitted.job);
  cd.stop();
  EXPECT_FALSE(cd.daemon().degraded());  // healed by the end
  *out = canonical_bytes(results.identity, results.total, results.rows);
}

TEST(Chaos, StormCompletesByteIdenticalToUndisturbedRun) {
  std::string chaotic;
  run_chaos_storm(7, &chaotic);
  ASSERT_FALSE(chaotic.empty());
  const JobSpec spec = quick_job();
  const auto local = local_rows(spec);
  EXPECT_EQ(chaotic,
            canonical_bytes(spec.identity(), local.size(), local));
}

TEST(Chaos, SameSeedReproducesTheSameBytes) {
  // Same seed, same storm, same bytes -- the reproducibility half of
  // the chaos contract (per-site injection sequences are pure functions
  // of the seed; test_fault.cpp pins the sequences themselves).
  std::string first, second;
  run_chaos_storm(11, &first);
  run_chaos_storm(11, &second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// ------------------------------------------------------------ heartbeats

TEST(Chaos, HeartbeatsKeepASlowLeaseAlivePastTheTimeout) {
  TempDir state("pns-chaos-hb");
  // One lease covers the whole job (lease_rows = 100 > 12 scenarios),
  // so while it is alive every other worker must be told "idle".
  ChaosDaemon cd(state.path(), nullptr, false, /*lease_timeout_s=*/0.3,
                 /*lease_rows=*/100);
  const net::Endpoint ep = cd.endpoint();
  const JobSpec spec = quick_job();
  const SubmitResult submitted = submit_job(ep, spec);

  // A "slow" worker: takes the whole-job lease, then only heartbeats
  // for several timeout periods before delivering.
  net::LineConn slow(net::connect_endpoint(ep));
  ASSERT_TRUE(slow.send_line_blocking(make_lease_request()));
  auto line = slow.recv_line_blocking();
  ASSERT_TRUE(line.has_value());
  const JsonValue lease = parse_message(*line);
  ASSERT_EQ(message_type(lease), "lease");
  const auto lease_id = lease.at("lease").as_uint64();

  for (int k = 0; k < 10; ++k) {  // ~1 s >> 0.3 s timeout
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(slow.send_line_blocking(
        make_heartbeat(submitted.job, lease_id)));
  }

  // The lease must still be alive: a second worker asking for work gets
  // idle, not the re-leased rows a dead worker would have surrendered.
  {
    net::LineConn probe(net::connect_endpoint(ep));
    ASSERT_TRUE(probe.send_line_blocking(make_lease_request()));
    auto reply = probe.recv_line_blocking();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(message_type(parse_message(*reply)), "idle");
  }

  // Deliver everything; no duplicates means no revocation ever happened.
  const auto local = local_rows(spec);
  for (const JsonValue& v : lease.at("indices").items()) {
    const auto i = static_cast<std::size_t>(v.as_uint64());
    ASSERT_TRUE(slow.send_line_blocking(
        make_row(submitted.job, lease_id, i, 0.1, local.at(i))));
  }
  ASSERT_TRUE(slow.send_line_blocking(
      make_lease_done(submitted.job, lease_id)));
  ASSERT_TRUE(slow.send_line_blocking(make_status()));
  ASSERT_TRUE(slow.recv_line_blocking().has_value());

  const StatusReport status = fetch_status(ep);
  ASSERT_EQ(status.jobs.size(), 1u);
  EXPECT_TRUE(status.jobs[0].complete);
  EXPECT_EQ(status.jobs[0].duplicates, 0u);
}

TEST(Chaos, HeartbeatsCoverEveryLeaseOfASession) {
  TempDir state("pns-chaos-hb-session");
  // One-row leases of the PNS rows of an hour-long table2 window: each
  // row takes longer than the lease timeout, so only heartbeats keep
  // its lease alive, and one worker session runs three leases back to
  // back on the same connection.
  const double lease_timeout_s = 0.15;
  std::mutex log_mu;
  std::size_t revocations = 0;
  ChaosDaemon cd(state.path(), nullptr, false, lease_timeout_s,
                 /*lease_rows=*/1, [&](const std::string& line) {
                   if (line.find("revoked") == std::string::npos) return;
                   const std::lock_guard<std::mutex> lock(log_mu);
                   ++revocations;
                 });
  const net::Endpoint ep = cd.endpoint();
  JobSpec spec;
  spec.preset = "table2";
  spec.minutes = 60.0;
  spec.controls = {sweep::ControlSpec::parse("pns")};
  const SubmitResult submitted = submit_job(ep, spec);
  ASSERT_EQ(submitted.total, 3u);

  // Wall time of each lease, from its "leased" log line to the next one
  // (or the end of the run).
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> lease_starts;
  WorkerOptions w;
  w.endpoint = ep;
  w.threads = 1;
  w.once = true;
  w.heartbeat_s = 0.02;
  w.max_reconnects = 0;
  w.log = [&](const std::string& line) {
    if (line.find(": leased ") != std::string::npos)
      lease_starts.push_back(Clock::now());
  };
  const WorkerReport report = run_worker(w);
  const Clock::time_point end = Clock::now();

  EXPECT_EQ(report.leases, 3u);
  EXPECT_EQ(report.rows, 3u);
  EXPECT_EQ(report.reconnects, 0u);
  ASSERT_EQ(lease_starts.size(), 3u);
  lease_starts.push_back(end);
  for (std::size_t k = 0; k + 1 < lease_starts.size(); ++k)
    EXPECT_GT(std::chrono::duration<double>(lease_starts[k + 1] -
                                            lease_starts[k])
                  .count(),
              lease_timeout_s)
        << "lease " << k << " finished inside the timeout";

  const StatusReport status = fetch_status(ep);
  ASSERT_EQ(status.jobs.size(), 1u);
  EXPECT_TRUE(status.jobs[0].complete);
  EXPECT_EQ(status.jobs[0].duplicates, 0u);
  {
    const std::lock_guard<std::mutex> lock(log_mu);
    EXPECT_EQ(revocations, 0u);
  }
  expect_results_equal_local(ep, submitted.job, spec);
}

TEST(Chaos, StatusReportsPerWorkerLiveness) {
  TempDir state("pns-chaos-status");
  ChaosDaemon cd(state.path(), nullptr);
  const net::Endpoint ep = cd.endpoint();
  submit_job(ep, quick_job());

  net::LineConn w(net::connect_endpoint(ep));
  ASSERT_TRUE(w.send_line_blocking(make_hello("worker", 3, 2)));
  ASSERT_TRUE(w.recv_line_blocking().has_value());
  ASSERT_TRUE(w.send_line_blocking(make_lease_request()));
  ASSERT_TRUE(w.recv_line_blocking().has_value());

  const StatusReport status = fetch_status(ep);
  ASSERT_EQ(status.worker_info.size(), 1u);
  EXPECT_EQ(status.worker_info[0].worker, 1u);
  EXPECT_EQ(status.worker_info[0].threads, 3u);
  EXPECT_EQ(status.worker_info[0].leases, 1u);
  EXPECT_EQ(status.worker_info[0].retries, 2u);
  EXPECT_GE(status.worker_info[0].last_seen_s, 0.0);
  EXPECT_LT(status.worker_info[0].last_seen_s, 30.0);
  EXPECT_FALSE(status.degraded);
}

// --------------------------------------------------------- degraded mode

TEST(Chaos, DeadDiskPausesLeasingButKeepsServing) {
  TempDir state("pns-chaos-dead");
  // Every fsync from the 2nd on fails: the header write survives, the
  // first accepted row does not, and the disk never comes back.
  ChaosDaemon cd(state.path(),
                 fault::make_injector("fault:seed=1,fsync_fail_from=2"),
                 /*fsync=*/true);
  const net::Endpoint ep = cd.endpoint();
  const JobSpec spec = quick_job();
  const SubmitResult submitted = submit_job(ep, spec);
  const auto local = local_rows(spec);

  net::LineConn w(net::connect_endpoint(ep));
  ASSERT_TRUE(w.send_line_blocking(make_lease_request()));
  auto line = w.recv_line_blocking();
  ASSERT_TRUE(line.has_value());
  const JsonValue lease = parse_message(*line);
  ASSERT_EQ(message_type(lease), "lease");
  const auto first = static_cast<std::size_t>(
      lease.at("indices").items()[0].as_uint64());
  // This row's journal append fails -> degraded, row NOT acknowledged.
  ASSERT_TRUE(w.send_line_blocking(make_row(
      submitted.job, lease.at("lease").as_uint64(), first, 0.1,
      local.at(first))));

  // Status still answers, reports the degradation, and counts no rows.
  StatusReport status = fetch_status(ep);
  EXPECT_TRUE(status.degraded);
  EXPECT_FALSE(status.degraded_reason.empty());
  ASSERT_EQ(status.jobs.size(), 1u);
  EXPECT_EQ(status.jobs[0].done, 0u);

  // Leasing is paused: a fresh worker gets idle, with the active job
  // still counted so --once workers keep polling for the recovery.
  {
    net::LineConn probe(net::connect_endpoint(ep));
    ASSERT_TRUE(probe.send_line_blocking(make_lease_request()));
    auto reply = probe.recv_line_blocking();
    ASSERT_TRUE(reply.has_value());
    const JsonValue msg = parse_message(*reply);
    ASSERT_EQ(message_type(msg), "idle");
    EXPECT_EQ(msg.at("active_jobs").as_uint64(), 1u);
  }

  // Results are still served from memory (empty but answering).
  const ResultsReport results = fetch_results(ep, submitted.job);
  EXPECT_FALSE(results.complete);
  EXPECT_TRUE(results.rows.empty());
}

TEST(Chaos, OneFailedFsyncDegradesThenHealsAndCompletes) {
  TempDir state("pns-chaos-heal");
  // Exactly the 2nd fsync fails (the first row append); every later
  // one succeeds, so the degraded daemon's probe heals it and the
  // unacknowledged row is re-leased and re-delivered.
  auto daemon_fault =
      fault::make_injector("fault:seed=1,fsync_fail=2");
  ChaosDaemon cd(state.path(), daemon_fault, /*fsync=*/true);
  const net::Endpoint ep = cd.endpoint();
  const JobSpec spec = quick_job();
  const SubmitResult submitted = submit_job(ep, spec);

  WorkerReport report;
  std::thread t([&] {
    WorkerOptions w;
    w.endpoint = ep;
    w.threads = 2;
    w.once = true;
    w.heartbeat_s = 0.05;
    report = run_worker(w);
  });
  t.join();

  EXPECT_EQ(daemon_fault->stats(fault::FaultSite::kFsync).hits, 1u);
  expect_results_equal_local(ep, submitted.job, spec);
  cd.stop();
  EXPECT_FALSE(cd.daemon().degraded());
}

}  // namespace
}  // namespace pns::sweepd
