// Integration tests of the sweep daemon: an in-process Daemon serves on
// an ephemeral TCP (or Unix) socket while worker loops and raw protocol
// clients run against it from test threads.
//
// The headline property under test is the distributed byte-identity
// contract: however rows reach the daemon -- two clean workers, a worker
// killed mid-lease, duplicated results, a daemon restart -- the final
// canonical journal and aggregate CSV must equal a single-machine run of
// the same sweep byte for byte.
#include <unistd.h>

#include <algorithm>
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
#include "util/socket.hpp"

namespace pns::sweepd {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory, removed recursively on destruction.
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

/// The job every test runs: the quick preset over a tiny window.
JobSpec quick_job() {
  JobSpec spec;
  spec.preset = "quick";
  spec.minutes = 1.0;
  return spec;
}

/// An 18-row job: the table2 preset (6 schemes x 3 weather seeds) over a
/// one-minute window.
JobSpec table2_job() {
  JobSpec spec;
  spec.preset = "table2";
  spec.minutes = 1.0;
  return spec;
}

/// Ground truth: the same sweep executed locally, as index -> row.
std::map<std::size_t, sweep::SummaryRow> local_rows(const JobSpec& spec) {
  sweep::SweepRunnerOptions opt;
  opt.threads = 2;
  const auto outcomes = sweep::SweepRunner(opt).run(spec.expand());
  std::map<std::size_t, sweep::SummaryRow> rows;
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    rows.emplace(i, sweep::summarize(outcomes[i]));
  return rows;
}

/// Canonical-journal bytes of a row set (the comparable form).
std::string canonical_bytes(
    const std::string& identity, std::size_t total,
    const std::map<std::size_t, sweep::SummaryRow>& rows) {
  TempDir dir("pns-sweepd-canon");
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

/// An in-process daemon on an ephemeral endpoint, served from a thread.
class TestDaemon {
 public:
  explicit TestDaemon(const std::string& state_dir,
                      double lease_timeout_s = 30.0,
                      std::size_t lease_rows = 0,
                      std::function<void(const std::string&)> log = {}) {
    options_.endpoint = net::Endpoint::parse("tcp:127.0.0.1:0");
    options_.state_dir = state_dir;
    options_.lease_timeout_s = lease_timeout_s;
    options_.lease_rows = lease_rows;
    options_.log = std::move(log);
    options_.idle_poll_s = 0.02;  // fast idle polling keeps tests quick
    daemon_.emplace(options_);
    daemon_->bind();
    thread_ = std::thread([this] { daemon_->run(); });
  }

  ~TestDaemon() { stop(); }

  net::Endpoint endpoint() const {
    return net::Endpoint::parse("tcp:127.0.0.1:" +
                                std::to_string(daemon_->port()));
  }

  /// Stops the serve loop and joins; jobs() is safe afterwards.
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

/// A hand-driven protocol connection (for misbehaving-peer tests the
/// well-behaved worker/client helpers cannot express).
class RawConn {
 public:
  explicit RawConn(const net::Endpoint& ep)
      : conn_(net::connect_endpoint(ep)) {}

  void send(const std::string& line) {
    ASSERT_TRUE(conn_.send_line_blocking(line));
  }
  JsonValue recv() {
    std::optional<std::string> line = conn_.recv_line_blocking();
    if (!line) throw ProtocolError("peer closed");
    return parse_message(*line);
  }
  void close() { conn_.close(); }
  net::LineConn& io() { return conn_; }

 private:
  net::LineConn conn_;
};

WorkerOptions worker_options(const net::Endpoint& ep) {
  WorkerOptions w;
  w.endpoint = ep;
  w.threads = 2;
  w.once = true;
  return w;
}

void expect_distributed_equals_local(const net::Endpoint& ep,
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

// ------------------------------------------------------------- happy path

TEST(Daemon, TwoWorkersMatchLocalByteForByte) {
  TempDir state("pns-sweepd-two");
  TestDaemon td(state.path());
  const net::Endpoint ep = td.endpoint();
  const JobSpec spec = quick_job();

  const SubmitResult submitted = submit_job(ep, spec);
  EXPECT_EQ(submitted.job, "job-1");
  EXPECT_EQ(submitted.identity, spec.identity());
  EXPECT_EQ(submitted.total, spec.expand().size());

  WorkerReport r1, r2;
  std::thread w1([&] { r1 = run_worker(worker_options(ep)); });
  std::thread w2([&] { r2 = run_worker(worker_options(ep)); });
  w1.join();
  w2.join();
  EXPECT_EQ(r1.rows + r2.rows, submitted.total);

  const StatusReport status = fetch_status(ep);
  ASSERT_EQ(status.jobs.size(), 1u);
  EXPECT_TRUE(status.jobs[0].complete);
  EXPECT_EQ(status.jobs[0].done, submitted.total);
  EXPECT_EQ(status.jobs[0].duplicates, 0u);

  expect_distributed_equals_local(ep, submitted.job, spec);
}

TEST(Daemon, AutoLeasesAreSizedFromTheJob) {
  TempDir state("pns-sweepd-autolease");
  TestDaemon td(state.path());  // lease_rows = 0: sized automatically
  const net::Endpoint ep = td.endpoint();
  const JobSpec spec = table2_job();
  const SubmitResult submitted = submit_job(ep, spec);
  ASSERT_EQ(submitted.total, 18u);

  WorkerReport r1, r2;
  std::thread w1([&] { r1 = run_worker(worker_options(ep)); });
  std::thread w2([&] { r2 = run_worker(worker_options(ep)); });
  w1.join();
  w2.join();
  EXPECT_EQ(r1.rows + r2.rows, submitted.total);
  // Two waves per worker, sized from the whole job: leases of about
  // ceil(18 / 4) = 5 rows, however far the job has drained. Sizing from
  // the pending pool instead shrinks them toward one row (11 leases).
  EXPECT_LE(r1.leases + r2.leases, 4u);

  const StatusReport status = fetch_status(ep);
  ASSERT_EQ(status.jobs.size(), 1u);
  EXPECT_TRUE(status.jobs[0].complete);
  EXPECT_EQ(status.jobs[0].duplicates, 0u);
  expect_distributed_equals_local(ep, submitted.job, spec);
}

TEST(Daemon, QueuedJobsAreLeasedWhole) {
  TempDir state("pns-sweepd-queued");
  std::mutex log_mu;
  std::vector<std::size_t> lease_sizes;  // rows per grant, in grant order
  TestDaemon td(state.path(), 30.0, /*lease_rows=*/0,
                [&](const std::string& line) {
                  // "lease <id>: <job> rows <n> -> fd <fd>"
                  const auto rows = line.find(" rows ");
                  if (line.rfind("lease ", 0) != 0 ||
                      line.find(" -> fd ") == std::string::npos ||
                      rows == std::string::npos)
                    return;
                  const std::lock_guard<std::mutex> lock(log_mu);
                  lease_sizes.push_back(std::stoul(line.substr(rows + 6)));
                });
  const net::Endpoint ep = td.endpoint();
  const std::size_t jobs = 6;
  std::vector<std::string> ids;
  for (std::size_t j = 0; j < jobs; ++j) {
    const SubmitResult submitted = submit_job(ep, table2_job());
    ASSERT_EQ(submitted.total, 18u);
    ids.push_back(submitted.job);
  }

  WorkerReport r1, r2;
  std::thread w1([&] { r1 = run_worker(worker_options(ep)); });
  std::thread w2([&] { r2 = run_worker(worker_options(ep)); });
  w1.join();
  w2.join();
  EXPECT_EQ(r1.rows + r2.rows, jobs * 18);
  // Leases are sized from the backlog of all 108 queued rows, so the
  // first jobs go out whole and only the tail of the queue is split:
  // 18 18 18 9 9 9 and then six leases of 4-5 rows, 12 in all with both
  // workers counted (fewer while only one is). Sizing each lease from
  // its own job deals every job in four leases, 24 in all.
  const std::lock_guard<std::mutex> lock(log_mu);
  ASSERT_FALSE(lease_sizes.empty());
  EXPECT_EQ(lease_sizes.front(), 18u);
  EXPECT_EQ(lease_sizes.size(), r1.leases + r2.leases);
  EXPECT_LE(r1.leases + r2.leases, 2 * jobs)
      << ::testing::PrintToString(lease_sizes);

  for (const std::string& id : ids)
    expect_distributed_equals_local(ep, id, table2_job());
}

TEST(Daemon, WorkerKeepsAssetsForTheSession) {
  TempDir state("pns-sweepd-assets");
  // One-row leases: a cache that lived for one lease would miss on
  // every row.
  TestDaemon td(state.path(), 30.0, /*lease_rows=*/1);
  const net::Endpoint ep = td.endpoint();
  // A (3 weather traces), then B (2 traces), then A again. One worker
  // drains them in submission order.
  const std::vector<JobSpec> specs = {table2_job(), quick_job(),
                                      table2_job()};
  std::vector<std::string> ids;
  std::size_t total = 0;
  for (const JobSpec& spec : specs) {
    const SubmitResult submitted = submit_job(ep, spec);
    ids.push_back(submitted.job);
    total += submitted.total;
  }

  std::vector<std::string> log;
  WorkerOptions wopt = worker_options(ep);
  wopt.threads = 1;
  wopt.log = [&](const std::string& line) { log.push_back(line); };
  const WorkerReport report = run_worker(wopt);
  EXPECT_EQ(report.rows, total);
  EXPECT_EQ(report.leases, total);

  // Each trace is synthesised once for the whole run: A's three, then
  // B's two. The return to A hits -- the switch to B kept A's traces.
  const std::size_t misses = 3 + 2;
  EXPECT_EQ(report.asset_misses, misses);
  EXPECT_EQ(report.asset_hits, total - misses);
  ASSERT_FALSE(log.empty());
  EXPECT_NE(log.back().find(std::to_string(total - misses) +
                            " asset hits, " + std::to_string(misses) +
                            " asset misses"),
            std::string::npos)
      << log.back();

  for (std::size_t j = 0; j < specs.size(); ++j)
    expect_distributed_equals_local(ep, ids[j], specs[j]);
}

TEST(Daemon, TwoThreadWorkerKeepsOneAssetCacheForTheSession) {
  TempDir state("pns-sweepd-assets-2t");
  // Auto-sized leases hand this lone worker 9-row leases, so both of its
  // runner threads work each lease. They share the session's cache, so
  // each trace is still synthesised once per session, not once per
  // thread.
  TestDaemon td(state.path());
  const net::Endpoint ep = td.endpoint();
  const std::vector<JobSpec> specs = {table2_job(), quick_job(),
                                      table2_job()};
  std::vector<std::string> ids;
  std::size_t total = 0;
  for (const JobSpec& spec : specs) {
    const SubmitResult submitted = submit_job(ep, spec);
    ids.push_back(submitted.job);
    total += submitted.total;
  }

  WorkerOptions wopt = worker_options(ep);
  wopt.threads = 2;
  const WorkerReport report = run_worker(wopt);
  EXPECT_EQ(report.rows, total);
  EXPECT_LT(report.leases, total);  // multi-row leases reach both threads
  const std::size_t misses = 3 + 2;
  EXPECT_EQ(report.asset_misses, misses);
  EXPECT_EQ(report.asset_hits, total - misses);

  for (std::size_t j = 0; j < specs.size(); ++j)
    expect_distributed_equals_local(ep, ids[j], specs[j]);
}

TEST(Daemon, WorkerAssetCachesStayBoundedAcrossJobs) {
  TempDir state("pns-sweepd-asset-cap");
  TestDaemon td(state.path());
  const net::Endpoint ep = td.endpoint();
  // Every table2 window has its own 3 traces. Ten windows and the quick
  // job (2 traces) fill the 32-trace cache exactly; the eleventh window
  // evicts them all before it synthesises its own, so the return to the
  // first window misses again.
  const auto table2_over = [](double minutes) {
    JobSpec spec = table2_job();
    spec.minutes = minutes;
    return spec;
  };
  std::vector<JobSpec> specs;
  for (int k = 0; k < 10; ++k) specs.push_back(table2_over(0.5 + 0.1 * k));
  specs.push_back(quick_job());
  specs.push_back(table2_over(1.5));
  specs.push_back(table2_over(0.5));
  std::size_t total = 0;
  for (const JobSpec& spec : specs) total += submit_job(ep, spec).total;

  WorkerOptions wopt = worker_options(ep);
  wopt.threads = 1;
  const WorkerReport report = run_worker(wopt);
  EXPECT_EQ(report.rows, total);
  const std::size_t misses = 10 * 3 + 2 + 3 + 3;
  EXPECT_EQ(report.asset_misses, misses);
  EXPECT_EQ(report.asset_hits, total - misses);
}

TEST(Daemon, ServesUnixSockets) {
  TempDir state("pns-sweepd-unix");
  DaemonOptions opt;
  opt.endpoint = net::Endpoint::parse("unix:" + state.path() + "/d.sock");
  opt.state_dir = state.path();
  opt.idle_poll_s = 0.02;
  Daemon daemon(opt);
  daemon.bind();
  std::thread serve([&] { daemon.run(); });

  const SubmitResult submitted = submit_job(opt.endpoint, quick_job());
  run_worker(worker_options(opt.endpoint));
  expect_distributed_equals_local(opt.endpoint, submitted.job,
                                  quick_job());
  shutdown_daemon(opt.endpoint);  // covers the client shutdown path too
  serve.join();
}

// --------------------------------------------------------- failure paths

TEST(Daemon, WorkerKilledMidLeaseIsReLeasedAndStaysByteIdentical) {
  TempDir state("pns-sweepd-kill");
  TestDaemon td(state.path(), /*lease_timeout_s=*/30.0);
  const net::Endpoint ep = td.endpoint();
  const JobSpec spec = quick_job();
  const SubmitResult submitted = submit_job(ep, spec);
  const auto local = local_rows(spec);

  // A worker takes a lease, delivers exactly one row, then dies without
  // lease_done: the daemon must revoke on disconnect (not wait for the
  // 30 s timeout) and hand the remainder to the next worker.
  {
    RawConn evil(ep);
    evil.send(make_hello("worker", 1));
    EXPECT_EQ(message_type(evil.recv()), "hello_ok");
    evil.send(make_lease_request());
    const JsonValue lease = evil.recv();
    ASSERT_EQ(message_type(lease), "lease");
    const auto& indices = lease.at("indices").items();
    ASSERT_FALSE(indices.empty());
    const auto first =
        static_cast<std::size_t>(indices[0].as_uint64());
    evil.send(make_row(submitted.job, lease.at("lease").as_uint64(),
                       first, 0.1, local.at(first)));
    evil.close();  // mid-lease death
  }

  std::thread w([&] { run_worker(worker_options(ep)); });
  w.join();

  const StatusReport status = fetch_status(ep);
  ASSERT_EQ(status.jobs.size(), 1u);
  EXPECT_TRUE(status.jobs[0].complete);
  EXPECT_EQ(status.jobs[0].duplicates, 0u);  // revoked rows, not re-run rows
  expect_distributed_equals_local(ep, submitted.job, spec);
}

TEST(Daemon, DuplicateRowsAreAcceptedIdempotently) {
  TempDir state("pns-sweepd-dup");
  TestDaemon td(state.path());
  const net::Endpoint ep = td.endpoint();
  const JobSpec spec = quick_job();
  const SubmitResult submitted = submit_job(ep, spec);
  const auto local = local_rows(spec);

  {
    RawConn conn(ep);
    conn.send(make_lease_request());
    const JsonValue lease = conn.recv();
    ASSERT_EQ(message_type(lease), "lease");
    const auto lease_id = lease.at("lease").as_uint64();
    const auto first = static_cast<std::size_t>(
        lease.at("indices").items()[0].as_uint64());
    // The same completed row three times: replayed frames and re-leased
    // work must both fold into exactly one journalled row.
    for (int k = 0; k < 3; ++k)
      conn.send(
          make_row(submitted.job, lease_id, first, 0.1, local.at(first)));
    conn.send(make_lease_done(submitted.job, lease_id));
    // Round-trip a status request so all five sends are known-processed
    // before the connection drops.
    conn.send(make_status());
    EXPECT_EQ(message_type(conn.recv()), "status_ok");
  }

  std::thread w([&] { run_worker(worker_options(ep)); });
  w.join();

  const StatusReport status = fetch_status(ep);
  ASSERT_EQ(status.jobs.size(), 1u);
  EXPECT_TRUE(status.jobs[0].complete);
  EXPECT_EQ(status.jobs[0].done, submitted.total);
  EXPECT_EQ(status.jobs[0].duplicates, 2u);
  expect_distributed_equals_local(ep, submitted.job, spec);
}

TEST(Daemon, LeaseTimeoutReturnsRowsToThePool) {
  TempDir state("pns-sweepd-timeout");
  TestDaemon td(state.path(), /*lease_timeout_s=*/0.2);
  const net::Endpoint ep = td.endpoint();
  const JobSpec spec = quick_job();
  const SubmitResult submitted = submit_job(ep, spec);

  // This worker takes a lease and then just sits on it, connection
  // open: only the timeout can recover its rows.
  RawConn stalled(ep);
  stalled.send(make_lease_request());
  ASSERT_EQ(message_type(stalled.recv()), "lease");

  std::thread w([&] { run_worker(worker_options(ep)); });
  w.join();

  const StatusReport status = fetch_status(ep);
  ASSERT_EQ(status.jobs.size(), 1u);
  EXPECT_TRUE(status.jobs[0].complete);
  expect_distributed_equals_local(ep, submitted.job, spec);
}

TEST(Daemon, RestartResumesFromJournalByteIdentically) {
  TempDir state("pns-sweepd-restart");
  const JobSpec spec = quick_job();
  const auto local = local_rows(spec);
  std::string job_id;

  {
    TestDaemon td(state.path(), 30.0, /*lease_rows=*/4);
    const net::Endpoint ep = td.endpoint();
    const SubmitResult submitted = submit_job(ep, spec);
    job_id = submitted.job;

    // Deliver exactly one 4-row lease, then let the daemon die.
    RawConn conn(ep);
    conn.send(make_lease_request());
    const JsonValue lease = conn.recv();
    ASSERT_EQ(message_type(lease), "lease");
    const auto lease_id = lease.at("lease").as_uint64();
    for (const JsonValue& v : lease.at("indices").items()) {
      const auto i = static_cast<std::size_t>(v.as_uint64());
      conn.send(make_row(job_id, lease_id, i, 0.1, local.at(i)));
    }
    conn.send(make_lease_done(job_id, lease_id));
    conn.send(make_status());
    EXPECT_EQ(message_type(conn.recv()), "status_ok");
    td.stop();

    const std::vector<JobStatus> jobs = td.daemon().jobs();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].done, 4u);
    EXPECT_FALSE(jobs[0].complete);
  }

  // Same state dir, fresh daemon: the job must come back with its 4
  // journalled rows and only the missing 8 get leased out.
  TestDaemon td(state.path());
  const net::Endpoint ep = td.endpoint();
  {
    const StatusReport status = fetch_status(ep);
    ASSERT_EQ(status.jobs.size(), 1u);
    EXPECT_EQ(status.jobs[0].job, job_id);
    EXPECT_EQ(status.jobs[0].done, 4u);
  }
  WorkerReport finish;
  std::thread w([&] { finish = run_worker(worker_options(ep)); });
  w.join();
  EXPECT_EQ(finish.rows, local.size() - 4);

  expect_distributed_equals_local(ep, job_id, spec);
}

TEST(Daemon, ReloadSkipsAJobWhoseJournalRowsDoNotMatchItsSpecs) {
  TempDir state("pns-sweepd-relabel");
  const JobSpec bad = table2_job();
  const JobSpec good = quick_job();
  std::string bad_id, good_id;
  {
    TestDaemon td(state.path());
    bad_id = submit_job(td.endpoint(), bad).job;
    good_id = submit_job(td.endpoint(), good).job;
  }

  // Rewrite the first job's journal with one well-formed (CRC-checked)
  // row at index 0 that carries scenario 1's label: the journal reads
  // back cleanly, so only the label rule can catch it.
  const auto specs = bad.expand();
  {
    sweep::JournalWriter writer = sweep::JournalWriter::create(
        state.path() + "/" + bad_id + ".jsonl",
        sweep::JournalHeader{bad.identity(), specs.size()});
    sweep::SummaryRow relabelled;
    relabelled.label = specs[1].label;
    relabelled.ok = true;
    writer.append(0, relabelled);
  }

  std::mutex log_mutex;
  std::vector<std::string> log;
  TestDaemon td(state.path(), 30.0, 0, [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(log_mutex);
    log.push_back(line);
  });
  const net::Endpoint ep = td.endpoint();
  {
    const StatusReport status = fetch_status(ep);
    ASSERT_EQ(status.jobs.size(), 1u);
    EXPECT_EQ(status.jobs[0].job, good_id);
  }
  const WorkerReport report = run_worker(worker_options(ep));
  EXPECT_EQ(report.rows, good.expand().size());
  expect_distributed_equals_local(ep, good_id, good);
  td.stop();

  const std::vector<JobStatus> jobs = td.daemon().jobs();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].job, good_id);
  const std::string diagnostic = "skipping " + state.path() + "/" + bad_id +
                                 ".spec.json: " + state.path() + "/" +
                                 bad_id +
                                 ".jsonl: journaled row does not match "
                                 "scenario 0";
  std::lock_guard<std::mutex> lock(log_mutex);
  EXPECT_TRUE(std::any_of(log.begin(), log.end(),
                          [&](const std::string& line) {
                            return line.rfind(diagnostic, 0) == 0;
                          }))
      << "no line starts with: " << diagnostic;
}

TEST(Daemon, ReloadIgnoresAJobIdThatIsNotJobDigits) {
  TempDir state("pns-sweepd-jobid");
  const JobSpec spec = quick_job();
  {
    TestDaemon td(state.path());
    ASSERT_EQ(submit_job(td.endpoint(), spec).job, "job-1");
  }

  // Re-home job-1 as "job--1". A signed suffix is not a job number: read
  // as 2^64 - 1 it would wrap the next id to job-0.
  std::string doc;
  {
    std::ifstream in(state.path() + "/job-1.spec.json");
    ASSERT_TRUE(std::getline(in, doc));
  }
  const std::string id_field = "\"job\":\"job-1\"";
  const std::size_t at = doc.find(id_field);
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, id_field.size(), "\"job\":\"job--1\"");
  {
    std::ofstream out(state.path() + "/job--1.spec.json");
    out << doc << '\n';
  }
  fs::remove(state.path() + "/job-1.spec.json");
  fs::rename(state.path() + "/job-1.jsonl", state.path() + "/job--1.jsonl");

  TestDaemon td(state.path());
  EXPECT_TRUE(fetch_status(td.endpoint()).jobs.empty());
  EXPECT_EQ(submit_job(td.endpoint(), spec).job, "job-1");
}

// ------------------------------------------------------------- robustness

TEST(Daemon, SurvivesGarbageAndOversizedFrames) {
  TempDir state("pns-sweepd-fuzz");
  TestDaemon td(state.path());
  const net::Endpoint ep = td.endpoint();

  const char* garbage[] = {
      "not json at all",
      "{\"type\":\"submit\"",  // truncated
      "[]",
      "{\"no\":\"type\"}",
      "{\"type\":\"frobnicate\"}",  // unknown type
      "{\"type\":\"row\",\"job\":\"job-99\",\"i\":0,\"row\":{}}",
  };
  for (const char* line : garbage) {
    RawConn conn(ep);
    conn.send(line);
    // Every bad frame earns an explanatory error and a closed stream.
    const JsonValue reply = conn.recv();
    EXPECT_EQ(message_type(reply), "error") << line;
    EXPECT_FALSE(conn.io().recv_line_blocking().has_value()) << line;
  }

  {  // One line beyond the 4 MB framing limit.
    RawConn conn(ep);
    conn.send(std::string((4u << 20) + 100, 'a'));
    for (;;) {
      std::optional<std::string> line = conn.io().recv_line_blocking();
      if (!line) break;  // daemon closed on us, possibly after an error
      EXPECT_EQ(message_type(parse_message(*line)), "error");
    }
  }

  // The daemon shrugged all of it off and still serves real clients.
  const SubmitResult submitted = submit_job(ep, quick_job());
  run_worker(worker_options(ep));
  expect_distributed_equals_local(ep, submitted.job, quick_job());
}

TEST(Daemon, BadSubmissionsAreReportedWithoutDroppingTheConnection) {
  TempDir state("pns-sweepd-badsubmit");
  TestDaemon td(state.path());
  RawConn conn(td.endpoint());

  JobSpec bad = quick_job();
  bad.preset = "no-such-preset";
  conn.send(make_submit(bad));
  const JsonValue reply = conn.recv();
  ASSERT_EQ(message_type(reply), "error");
  // The error must name the valid presets, mirroring the CLI.
  EXPECT_NE(reply.at("error").as_string().find("quick"),
            std::string::npos);

  // Same connection, valid submit: still usable.
  conn.send(make_submit(quick_job()));
  EXPECT_EQ(message_type(conn.recv()), "submitted");
}

TEST(Daemon, SubmitOfANonPositiveWindowIsRefused) {
  // Every row of such a job would fail its precondition, so the submit
  // itself is refused, before any state is written.
  TempDir state("pns-sweepd-minutes");
  TestDaemon td(state.path());
  const net::Endpoint ep = td.endpoint();
  RawConn conn(ep);
  for (const double minutes : {-1.0, 0.0}) {
    JobSpec bad = quick_job();
    bad.minutes = minutes;
    conn.send(make_submit(bad));
    const JsonValue reply = conn.recv();
    ASSERT_EQ(message_type(reply), "error") << minutes;
    EXPECT_NE(reply.at("error").as_string().find("minutes"),
              std::string::npos);
  }
  EXPECT_TRUE(fetch_status(ep).jobs.empty());
  EXPECT_FALSE(fs::exists(state.path() + "/job-1.spec.json"));

  // The daemon keeps serving: the next valid job is job-1 and completes.
  const SubmitResult submitted = submit_job(ep, quick_job());
  EXPECT_EQ(submitted.job, "job-1");
  run_worker(worker_options(ep));
  expect_distributed_equals_local(ep, submitted.job, quick_job());
}

TEST(Daemon, WatchStreamsReplayAndLiveRows) {
  TempDir state("pns-sweepd-watch");
  TestDaemon td(state.path());
  const net::Endpoint ep = td.endpoint();
  const JobSpec spec = quick_job();
  const SubmitResult submitted = submit_job(ep, spec);

  std::map<std::size_t, sweep::SummaryRow> streamed;
  std::thread watcher([&] {
    watch_job(ep, submitted.job,
              [&](std::size_t i, const sweep::SummaryRow& row) {
                streamed.emplace(i, row);
              });
  });
  std::thread w([&] { run_worker(worker_options(ep)); });
  w.join();
  watcher.join();

  ASSERT_EQ(streamed.size(), submitted.total);
  EXPECT_EQ(canonical_bytes(submitted.identity, submitted.total, streamed),
            canonical_bytes(spec.identity(), submitted.total,
                            local_rows(spec)));
}

}  // namespace
}  // namespace pns::sweepd
