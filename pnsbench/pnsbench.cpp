// pnsbench -- driver binary of the repository benchmark (pnsbench/run.py).
//
// Runs one named workload through the pns library's public API only --
// sweep::SweepRunner, the SimEngine stepped API, sim::BatchEngine, the
// registries, Aggregator, read_journal and the sweepd daemon, worker and
// client -- and prints one JSON object as its last stdout line. Workload
// inputs are a pure function of --seed; the library only ever sees the
// generated specs or jobs.
//
//   pnsbench --workload table2_exact --seed 42 --seconds 10 --trace 0
//            --dump out.bytes --state-dir state
//
// Untraced runs (--trace 0) repeat untouched passes for --seconds and
// report end-to-end medians. Traced runs (--trace 1) alternate untraced
// passes with passes that re-drive the same work through timed public
// calls, and report per-layer self times and counters. Every pass's
// aggregate CSV+JSON must equal the first pass's bytes; batched
// workloads must also equal the same specs under rk23pi, and the daemon
// workload must equal an in-process SweepRunner over the same jobs. Rows
// that differ count as failed. --dump writes the checked bytes, which
// run.py digests against pnsbench/digests.json at the default seed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ehsim/solar_cell_simd.hpp"
#include "ehsim/sources.hpp"
#include "sim/batch_engine.hpp"
#include "sim/experiment.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/assets.hpp"
#include "sweep/journal.hpp"
#include "sweep/presets.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "sweepd/client.hpp"
#include "sweepd/daemon.hpp"
#include "sweepd/job.hpp"
#include "sweepd/worker.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace {

using namespace pns;
using Clock = std::chrono::steady_clock;

/// The seed at which every workload reproduces its preset exactly (the
/// table2 preset's weather seeds are {42, 43, 44}).
constexpr std::uint64_t kDefaultSeed = 42;
/// Passes an untraced run makes even when --seconds is already spent.
constexpr std::size_t kMinPasses = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds since `t`, then restarts `t`: one clock read per span edge.
double lap(Clock::time_point& t) {
  const Clock::time_point now = Clock::now();
  const double s = std::chrono::duration<double>(now - t).count();
  t = now;
  return s;
}

/// User + system CPU time of the whole process (every thread).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set of this process image. Not getrusage's ru_maxrss:
/// Linux carries that across exec, so it reports the launching Python
/// interpreter's peak whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))),
      1, v.size());
  return v[rank - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------ workloads

struct Workload {
  std::string name;
  bool daemon = false;
  std::string integrator;  ///< sweep workloads: spec string of every row
  double minutes = 0.0;    ///< window per row (daemon: mean job window)
  /// Integrator whose bytes the workload must equal ("" = no parity
  /// check): rk23pi for the batched kinds, the batching contract.
  std::string parity;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"table2_exact", false, "rk23", 20.0, ""},
      {"table2_batched", false, "rk23simd", 180.0, "rk23pi"},
      {"capacitance_batched", false, "rk23simd", 60.0, "rk23pi"},
      {"daemon_fanout", true, "rk23pi", 0.1, ""},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

/// Fisher-Yates shuffle driven by splitmix64.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t& state) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[splitmix64(state) % i]);
}

/// The sweep workloads' scenario list: table2 over weather seeds
/// {seed, seed+1, seed+2}; or the capacitance preset with its buffer-size
/// axis in a seeded order (the preset's order at the default seed), so
/// every seed packs the lanes of each lockstep unit in another order. The
/// capacitance values and weather draws stay the preset's: a new weather
/// seed changes the work by up to +-20 %, and even a 1 % change of the
/// buffer sizes flips rows between two modes 14 % apart, either of which
/// would drown every bound. The weather (unit) order stays too, so row
/// completion times stay comparable across seeds.
sweep::SweepSpec sweep_spec(const Workload& w, std::uint64_t seed,
                            double scale) {
  const double minutes = w.minutes * scale;
  sweep::SweepSpec sw;
  if (w.name == "capacitance_batched") {
    sw = sweep::capacitance_sweep(minutes);
    std::uint64_t state = seed;
    if (seed != kDefaultSeed) shuffle(sw.capacitances_f, state);
  } else {
    sw = sweep::table2_sweep(minutes, {seed, seed + 1, seed + 2});
  }
  sw.base.integrator = sweep::IntegratorSpec::parse(w.integrator);
  return sw;
}

/// The daemon workload's jobs: short table2 jobs whose windows (0.05 to
/// 0.15 min, mean 0.1) and controller/governor parameters are drawn from
/// the seed, in the preset's control order.
std::vector<sweepd::JobSpec> daemon_jobs(const Workload& w, std::uint64_t seed,
                                         std::size_t count, double scale) {
  static const char* const kPeriods[] = {"0.05", "0.1", "0.2"};
  static const char* const kVq[] = {"0.03", "0.0479", "0.06", "0.08"};
  std::uint64_t state = seed;
  std::vector<sweepd::JobSpec> jobs;
  jobs.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    sweepd::JobSpec job;
    job.preset = "table2";
    job.minutes = static_cast<double>(5 + splitmix64(state) % 11) / 100.0 *
                  (w.minutes / 0.1) * scale;
    job.integrator = sweep::IntegratorSpec::parse(w.integrator);
    auto pick = [&](const auto& table) {
      return std::string(table[splitmix64(state) % std::size(table)]);
    };
    for (const std::string& c :
         {std::string("gov:performance"),
          "gov:ondemand:period=" + pick(kPeriods),
          "gov:interactive:period=" + pick(kPeriods),
          "gov:conservative:period=" + pick(kPeriods),
          std::string("gov:powersave"), "pns:v_q=" + pick(kVq)})
      job.controls.push_back(sweep::ControlSpec::parse(c));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

// ------------------------------------------------------------ passes

/// What one pass produced: its timings and the aggregate bytes.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Sweep passes: per-row time from the pass start to the row's outcome.
  /// Daemon passes: per-job time from submit_job returning to the client
  /// seeing the job complete.
  std::vector<double> latency_s;
  std::string csv, json;  ///< aggregate output (daemon: every job's, in order)
  std::size_t rows = 0;
  std::size_t failed = 0;  ///< ok == false or missing
};

std::size_t count_failed(const std::vector<sweep::SweepOutcome>& outcomes) {
  std::size_t n = 0;
  for (const auto& o : outcomes) n += !o.ok;
  return n;
}

void serialize(const sweep::Aggregator& agg, PassResult& r) {
  std::ostringstream csv, json;
  agg.write_csv(csv);
  agg.write_json(json);
  r.csv += csv.str();
  r.json += json.str();
}

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  for (std::string line; std::getline(is, line);) out.push_back(line);
  return out;
}

/// Rows of `got` whose bytes differ from `want`: differing CSV lines, or
/// every row when only the JSON differs (its fields cannot be attributed
/// line by line).
std::size_t rows_differing(const PassResult& got, const PassResult& want) {
  if (got.csv == want.csv && got.json == want.json) return 0;
  const auto a = lines_of(got.csv), b = lines_of(want.csv);
  std::size_t diff = a.size() > b.size() ? a.size() - b.size()
                                         : b.size() - a.size();
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    diff += a[i] != b[i];
  if (diff == 0) return std::max<std::size_t>(want.rows, 1);
  return std::min(diff, std::max(want.rows, got.rows));
}

/// Per-layer accounting of one traced pass.
struct Trace {
  double expand_s = 0.0;
  double resolve_s = 0.0, source_s = 0.0, build_s = 0.0;
  std::uint64_t asset_hits = 0, asset_misses = 0;
  // Scalar rows, stepped through the SimEngine API.
  double plan_s = 0.0, advance_s = 0.0, commit_s = 0.0;
  std::uint64_t segments = 0, coasted = 0, events = 0;
  std::uint64_t scalar_steps = 0;
  // Every row.
  std::uint64_t rk_steps = 0, rk_rejected = 0;
  ehsim::PvSolveStats pv;
  // Batched units.
  std::uint64_t units = 0, max_width = 0, min_width = 0;
  double batch_run_s = 0.0;
  std::uint64_t supersteps = 0, rounds = 0, lockstep_steps = 0;
  std::uint64_t lane_capacity = 0;  ///< sum of rounds x configured width
  std::uint64_t simd_lane_steps = 0, tail_steps = 0, divergences = 0;
  std::uint64_t event_windows = 0, coast_retirements = 0;
  // Output.
  double aggregate_s = 0.0, serialize_s = 0.0;
  std::uint64_t output_bytes = 0;
  // Daemon (client side plus journals read back afterwards).
  double submit_s = 0.0, results_s = 0.0, journal_read_s = 0.0;
  double row_costs_s = 0.0;
  std::uint64_t leases = 0, worker_rows = 0, retries = 0;
  unsigned workers = 0;
  double wall_s = 0.0;
};

/// One resolved row: what run_scenario keeps on its stack, kept alive
/// for the engine that references it.
struct Lane {
  std::unique_ptr<sweep::ScenarioSpec> resolved;  ///< non-mono platforms
  std::unique_ptr<ehsim::PvSource> source;
  sim::EngineBundle bundle;
};

/// run_scenario's resolution sequence through the public registry API,
/// with each step timed into its layer.
Lane build_lane(const sweep::ScenarioSpec& in, sweep::ScenarioAssets& assets,
                Trace& tr) {
  Lane lane;
  Clock::time_point t = Clock::now();
  if (in.platform_spec != sweep::PlatformSpec{}) {
    lane.resolved = std::make_unique<sweep::ScenarioSpec>(in);
    lane.resolved->platform = sweep::resolve_platform(in.platform_spec);
    lane.resolved->platform_spec = sweep::PlatformSpec{};
  }
  const sweep::ScenarioSpec& spec = lane.resolved ? *lane.resolved : in;
  const sweep::SourceEntry& entry =
      sweep::SourceRegistry::instance().require(spec.source.kind);
  sim::ControlSelection control = sweep::resolve_control(spec.control, spec);
  sim::SimConfig config = sweep::make_sim_config(spec);
  tr.resolve_s += lap(t);
  lane.source =
      std::make_unique<ehsim::PvSource>(sweep::resolve_source(spec, assets));
  tr.source_s += lap(t);
  lane.bundle = sim::make_pv_engine(spec.platform, *lane.source,
                                    std::move(control), std::move(config),
                                    entry.solar_defaults);
  tr.build_s += lap(t);
  return lane;
}

void account_lane(const Lane& lane, Trace& tr) {
  const ehsim::Rk23Integrator& ig = lane.bundle.engine->integrator();
  tr.rk_steps += ig.total_steps();
  tr.rk_rejected += ig.total_rejected();
  tr.pv += lane.source->solve_stats();
}

/// One scalar row through begin / plan_segment / advance / commit_segment
/// / finish -- SimEngine::run()'s own loop, so the bytes are run()'s.
void run_scalar_traced(const sweep::ScenarioSpec& spec,
                       sweep::ScenarioAssets& assets, sweep::SweepOutcome& out,
                       Trace& tr) {
  out.spec = spec;
  try {
    Lane lane = build_lane(spec, assets, tr);
    sim::SimEngine& engine = *lane.bundle.engine;
    const std::uint64_t steps0 = engine.integrator().total_steps();
    Clock::time_point t = Clock::now();
    engine.begin();
    tr.plan_s += lap(t);
    while (!engine.finished()) {
      const sim::SimEngine::SegmentPlan plan = engine.plan_segment();
      tr.plan_s += lap(t);
      ehsim::IntegrationResult res;
      if (plan.coasted) {
        res = plan.coast_result;
        ++tr.coasted;
      } else {
        res = engine.integrator().advance(plan.t_stop, engine.events());
        tr.advance_s += lap(t);
      }
      tr.events += res.event_fired;
      ++tr.segments;
      engine.commit_segment(res);
      tr.commit_s += lap(t);
    }
    out.result = engine.finish();
    tr.commit_s += lap(t);
    tr.scalar_steps += engine.integrator().total_steps() - steps0;
    account_lane(lane, tr);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

/// One lockstep unit: lanes built like run_scenarios_batched builds them,
/// BatchEngine::run() timed, its stats() read back.
void run_batched_traced(const sweep::ScenarioSpec* specs, std::size_t count,
                        sweep::ScenarioAssets& assets,
                        sweep::SweepOutcome* outs, Trace& tr) {
  std::vector<Lane> lanes;
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < count; ++i) {
    outs[i].spec = specs[i];
    try {
      lanes.push_back(build_lane(specs[i], assets, tr));
      index.push_back(i);
    } catch (const std::exception& e) {
      outs[i].error = e.what();
    }
  }
  if (lanes.empty()) return;
  std::vector<sim::SimEngine*> engines;
  for (const Lane& lane : lanes) engines.push_back(lane.bundle.engine.get());
  sim::BatchEngineOptions opt;
  const sweep::IntegratorEntry* entry =
      sweep::IntegratorRegistry::instance().find(
          specs[index.front()].integrator.kind);
  opt.simd = entry != nullptr && entry->batch_simd;
  sim::BatchEngine batch(std::move(engines), opt);
  try {
    const Clock::time_point t = Clock::now();
    std::vector<sim::SimResult> results = batch.run();
    tr.batch_run_s += since(t);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      outs[index[k]].result = std::move(results[k]);
      outs[index[k]].ok = true;
      account_lane(lanes[k], tr);
    }
  } catch (const std::exception& e) {
    for (std::size_t i : index) outs[i].error = e.what();
  }
  const sim::BatchRunStats& st = batch.stats();
  const std::uint64_t width = sweep::batch_width(specs[0]);
  ++tr.units;
  tr.max_width = std::max<std::uint64_t>(tr.max_width, count);
  tr.min_width = tr.min_width == 0 ? count
                                   : std::min<std::uint64_t>(tr.min_width, count);
  tr.supersteps += st.supersteps;
  tr.rounds += st.stepping.rounds;
  tr.lockstep_steps += st.stepping.lockstep_steps;
  tr.lane_capacity += st.stepping.rounds * width;
  tr.simd_lane_steps += st.stepping.simd_lane_steps;
  tr.tail_steps += st.stepping.tail_steps;
  tr.divergences += st.stepping.divergences;
  tr.event_windows += st.stepping.event_windows;
  tr.coast_retirements += st.coast_retirements;
}

struct Unit {
  std::size_t begin, end;
};

/// SweepRunner::run's work-unit partition, rebuilt from the public
/// batch_width / batch_compatible.
std::vector<Unit> partition(const std::vector<sweep::ScenarioSpec>& specs) {
  std::vector<Unit> units;
  for (std::size_t i = 0; i < specs.size();) {
    std::size_t end = i + 1;
    const std::size_t width = sweep::batch_width(specs[i]);
    while (end < specs.size() && end - i < width &&
           sweep::batch_compatible(specs[i], specs[end]))
      ++end;
    units.push_back(Unit{i, end});
    i = end;
  }
  return units;
}

PassResult run_sweep_pass(const std::vector<sweep::ScenarioSpec>& specs,
                          unsigned threads = 1) {
  PassResult r;
  r.latency_s.reserve(specs.size());
  Clock::time_point t0;
  sweep::SweepRunnerOptions ropt;
  ropt.threads = threads;
  ropt.on_outcome = [&](std::size_t, const sweep::SweepOutcome&) {
    r.latency_s.push_back(since(t0));
  };
  const sweep::SweepRunner runner(ropt);
  const double c0 = cpu_seconds();
  t0 = Clock::now();
  const std::vector<sweep::SweepOutcome> outcomes = runner.run(specs);
  serialize(sweep::Aggregator(outcomes), r);
  r.wall_s = since(t0);
  r.cpu_s = cpu_seconds() - c0;
  r.rows = outcomes.size();
  r.failed = count_failed(outcomes);
  return r;
}

PassResult run_sweep_pass_traced(const std::vector<sweep::ScenarioSpec>& specs,
                                 Trace& tr) {
  PassResult r;
  std::vector<sweep::SweepOutcome> outcomes(specs.size());
  const std::vector<Unit> units = partition(specs);
  sweep::ScenarioAssets assets;
  const double c0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  for (const Unit& u : units) {
    if (sweep::batch_width(specs[u.begin]) > 0)
      run_batched_traced(specs.data() + u.begin, u.end - u.begin, assets,
                         outcomes.data() + u.begin, tr);
    else
      run_scalar_traced(specs[u.begin], assets, outcomes[u.begin], tr);
    const double done = since(t0);
    for (std::size_t i = u.begin; i < u.end; ++i) r.latency_s.push_back(done);
  }
  Clock::time_point t = Clock::now();
  const sweep::Aggregator agg(outcomes);
  tr.aggregate_s += lap(t);
  serialize(agg, r);
  tr.serialize_s += lap(t);
  r.wall_s = since(t0);
  r.cpu_s = cpu_seconds() - c0;
  r.rows = outcomes.size();
  r.failed = count_failed(outcomes);
  tr.asset_hits += assets.hits();
  tr.asset_misses += assets.misses();
  tr.output_bytes += r.csv.size() + r.json.size();
  tr.wall_s = r.wall_s;
  return r;
}

// ------------------------------------------------------------ daemon

constexpr unsigned kDaemonWorkers = 2;

/// One daemon pass: a fresh in-process daemon on `state_dir`, every job
/// submitted, two single-thread pull-workers, and a client that watches
/// the jobs in submission order and fetches, aggregates and serialises
/// each as it completes. `setup_only` stops at the first lease.
struct DaemonPass {
  PassResult result;
  Clock::time_point first_lease;
  bool leased = false;
  std::string error;
};

DaemonPass run_daemon_pass(const std::vector<sweepd::JobSpec>& jobs,
                           const std::string& state_dir, bool setup_only,
                           Trace* tr) {
  namespace fs = std::filesystem;
  DaemonPass pass;
  PassResult& r = pass.result;
  // A unix socket beside the state dir: over TCP loopback the same
  // passes spread 1.2-2.3 s for unchanged work (unix: 1.1-1.2 s), which
  // would bury every dispatch-layer change in transport noise.
  const std::string socket_path = state_dir + ".sock";
  fs::remove_all(state_dir);
  fs::remove(socket_path);
  fs::create_directories(state_dir);

  std::mutex mu;  // guards first_lease/leased, written by the serve thread
  sweepd::DaemonOptions dopt;
  dopt.endpoint = net::Endpoint::parse("unix:" + socket_path);
  dopt.state_dir = state_dir;
  dopt.idle_poll_s = 0.01;
  // A setup-only pass tears down right after the first lease; one-row
  // leases keep the workers' in-flight work (and the teardown) short.
  if (setup_only) dopt.lease_rows = 1;
  dopt.log = [&](const std::string& line) {
    if (line.rfind("lease ", 0) != 0) return;
    std::lock_guard<std::mutex> lock(mu);
    if (!pass.leased) {
      pass.first_lease = Clock::now();
      pass.leased = true;
    }
  };
  auto daemon = std::make_unique<sweepd::Daemon>(dopt);
  daemon->bind();
  const net::Endpoint ep = dopt.endpoint;
  std::string serve_error;
  std::thread serve([&] {
    try {
      daemon->run();
    } catch (const std::exception& e) {
      serve_error = e.what();
    }
  });

  auto teardown = [&] {
    daemon->stop();
    serve.join();
  };

  std::vector<std::string> ids;
  std::vector<Clock::time_point> submitted;
  Clock::time_point t = Clock::now();
  try {
    for (const auto& job : jobs) {
      ids.push_back(sweepd::submit_job(ep, job).job);
      submitted.push_back(Clock::now());
    }
  } catch (const std::exception& e) {
    pass.error = std::string("submit: ") + e.what();
    teardown();
    return pass;
  }
  if (tr) tr->submit_s += lap(t);

  const double c0 = cpu_seconds();
  std::vector<sweepd::WorkerReport> reports(kDaemonWorkers);
  std::vector<std::string> worker_errors(kDaemonWorkers);
  std::vector<std::thread> workers;
  for (unsigned k = 0; k < kDaemonWorkers; ++k)
    workers.emplace_back([&, k] {
      try {
        sweepd::WorkerOptions wopt;
        wopt.endpoint = ep;
        wopt.threads = 1;
        wopt.once = true;
        if (setup_only) wopt.max_reconnects = 0;
        reports[k] = sweepd::run_worker(wopt);
      } catch (const std::exception& e) {
        worker_errors[k] = e.what();
      }
    });

  if (setup_only) {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (pass.leased) break;
      }
      if (Clock::now() > deadline) {
        pass.error = "no lease within 60 s";
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    teardown();
    daemon.reset();  // closes every connection: the workers give up
    for (auto& w : workers) w.join();
    fs::remove(socket_path);
    return pass;
  }

  std::size_t total_rows = 0;
  try {
    for (std::size_t j = 0; j < ids.size(); ++j) {
      sweepd::watch_job(ep, ids[j], nullptr);
      r.latency_s.push_back(since(submitted[j]));
      t = Clock::now();
      sweepd::ResultsReport rep = sweepd::fetch_results(ep, ids[j]);
      if (tr) tr->results_s += lap(t);
      std::vector<sweep::SummaryRow> rows;
      rows.reserve(rep.rows.size());
      for (auto& [i, row] : rep.rows) rows.push_back(std::move(row));
      total_rows += rep.total;
      r.failed += rep.failed + (rep.total - rows.size());
      const sweep::Aggregator agg(std::move(rows));
      if (tr) tr->aggregate_s += lap(t);
      serialize(agg, r);
      if (tr) tr->serialize_s += lap(t);
    }
  } catch (const std::exception& e) {
    pass.error = e.what();
  }
  const Clock::time_point end = Clock::now();
  for (auto& w : workers) w.join();
  r.cpu_s = cpu_seconds() - c0;
  teardown();
  std::uint64_t duplicates = 0;
  for (const auto& js : daemon->jobs()) duplicates += js.duplicates;
  daemon.reset();
  fs::remove(socket_path);

  {
    std::lock_guard<std::mutex> lock(mu);
    r.wall_s = pass.leased ? std::chrono::duration<double>(
                                 end - pass.first_lease)
                                 .count()
                           : 0.0;
  }
  r.rows = total_rows;
  if (!serve_error.empty()) pass.error = "daemon: " + serve_error;
  for (const auto& e : worker_errors)
    if (!e.empty() && pass.error.empty()) pass.error = "worker: " + e;

  if (tr) {
    t = Clock::now();
    for (const auto& id : ids) {
      const sweep::JournalContents jc =
          sweep::read_journal(state_dir + "/" + id + ".jsonl");
      for (const auto& [i, cost] : jc.costs) tr->row_costs_s += cost;
    }
    tr->journal_read_s += lap(t);
    for (const auto& rep : reports) {
      tr->leases += rep.leases;
      tr->worker_rows += rep.rows;
      tr->retries += rep.reconnects + rep.redelivered;
    }
    tr->retries += duplicates;
    tr->workers = kDaemonWorkers;
    tr->output_bytes += r.csv.size() + r.json.size();
    tr->wall_s = r.wall_s;
  }
  return pass;
}

// ------------------------------------------------------------ metrics

using Metrics = std::map<std::string, double>;

/// The per-layer metrics of one traced pass (see pnsbench/README.md).
Metrics layer_metrics(const Trace& tr) {
  const double pv_calls = static_cast<double>(tr.pv.calls);
  const double solves = static_cast<double>(tr.pv.newton_solves);
  const double attempts =
      static_cast<double>(tr.rk_steps + tr.rk_rejected);
  const double lane_steps =
      static_cast<double>(tr.lockstep_steps + tr.tail_steps);
  const double segments = static_cast<double>(tr.segments);
  Metrics m;
  m["sweep.expand_s"] = tr.expand_s;
  m["sweep.resolve_s"] = tr.resolve_s;
  m["sweep.source_s"] = tr.source_s;
  m["sweep.asset_hit_rate"] = ratio(
      static_cast<double>(tr.asset_hits),
      static_cast<double>(tr.asset_hits + tr.asset_misses));
  m["sim.build_s"] = tr.build_s;
  m["sim.plan_s"] = tr.plan_s;
  m["sim.advance_s"] = tr.advance_s;
  m["sim.commit_s"] = tr.commit_s;
  m["sim.segments"] = segments;
  m["sim.coasted_frac"] = ratio(static_cast<double>(tr.coasted), segments);
  m["sim.event_frac"] = ratio(static_cast<double>(tr.events), segments);
  m["sim.ns_per_step"] =
      1e9 * ratio(tr.advance_s, static_cast<double>(tr.scalar_steps));
  m["ehsim.rk_steps"] = static_cast<double>(tr.rk_steps);
  m["ehsim.rk_reject_frac"] =
      ratio(static_cast<double>(tr.rk_rejected), attempts);
  m["ehsim.pv_calls"] = pv_calls;
  m["ehsim.pv_memo_hit_rate"] =
      ratio(static_cast<double>(tr.pv.memo_hits), pv_calls);
  m["ehsim.pv_newton_solves"] = solves;
  m["ehsim.pv_iters_per_solve"] =
      ratio(static_cast<double>(tr.pv.newton_iterations), solves);
  m["ehsim.pv_packed_frac"] =
      ratio(static_cast<double>(tr.pv.simd_lanes), solves);
  m["batch.units"] = static_cast<double>(tr.units);
  m["batch.max_unit_width"] = static_cast<double>(tr.max_width);
  m["batch.min_unit_width"] = static_cast<double>(tr.min_width);
  m["batch.run_s"] = tr.batch_run_s;
  m["batch.supersteps"] = static_cast<double>(tr.supersteps);
  m["batch.rounds"] = static_cast<double>(tr.rounds);
  m["batch.lane_occupancy"] = ratio(static_cast<double>(tr.lockstep_steps),
                                    static_cast<double>(tr.rounds));
  m["batch.occupancy_frac"] =
      ratio(static_cast<double>(tr.lockstep_steps),
            static_cast<double>(tr.lane_capacity));
  m["batch.packed_step_frac"] =
      ratio(static_cast<double>(tr.simd_lane_steps), lane_steps);
  m["batch.divergences"] = static_cast<double>(tr.divergences);
  m["batch.tail_step_frac"] =
      ratio(static_cast<double>(tr.tail_steps), lane_steps);
  m["batch.event_windows"] = static_cast<double>(tr.event_windows);
  m["batch.coast_retirements"] = static_cast<double>(tr.coast_retirements);
  m["sweep.aggregate_s"] = tr.aggregate_s;
  m["sweep.serialize_s"] = tr.serialize_s;
  m["sweep.output_bytes"] = static_cast<double>(tr.output_bytes);
  m["sweepd.submit_s"] = tr.submit_s;
  m["sweepd.results_s"] = tr.results_s;
  m["sweepd.journal_read_s"] = tr.journal_read_s;
  m["sweepd.overhead_ms_per_row"] = 0.0;  // run() sets it for the daemon
  m["sweepd.worker_busy_frac"] =
      ratio(tr.row_costs_s, static_cast<double>(tr.workers) * tr.wall_s);
  m["sweepd.rows_per_lease"] = ratio(static_cast<double>(tr.worker_rows),
                                     static_cast<double>(tr.leases));
  m["sweepd.retries"] = static_cast<double>(tr.retries);
  return m;
}

/// Share of the traced wall the measured layer self times account for.
/// Daemon passes: the workers' journalled row costs (spread over the
/// workers) plus the client's results/aggregate/serialise spans.
double coverage(const Trace& tr) {
  if (tr.workers > 0)
    return ratio(tr.row_costs_s / tr.workers + tr.results_s + tr.aggregate_s +
                     tr.serialize_s,
                 tr.wall_s);
  return ratio(tr.resolve_s + tr.source_s + tr.build_s + tr.plan_s +
                   tr.advance_s + tr.commit_s + tr.batch_run_s +
                   tr.aggregate_s + tr.serialize_s,
               tr.wall_s);
}

// ------------------------------------------------------------ driver

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool describe = false;
  /// Self-test mode: windows x 0.05 and 8 daemon jobs.
  bool shrink = false;
  std::string dump;
  std::string state_dir = "pnsbench-state";
};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "pnsbench: %s\n"
               "usage: pnsbench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "                [--dump PATH] [--state-dir DIR] "
               "[--setup-only] [--describe] [--shrink]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " requires a value");
      return argv[++i];
    };
    if (arg == "--workload") opt.workload = next();
    else if (arg == "--seed") opt.seed = std::stoull(next());
    else if (arg == "--seconds") opt.seconds = std::stod(next());
    else if (arg == "--trace") opt.trace = next() != "0";
    else if (arg == "--dump") opt.dump = next();
    else if (arg == "--state-dir") opt.state_dir = next();
    else if (arg == "--setup-only") opt.setup_only = true;
    else if (arg == "--describe") opt.describe = true;
    else if (arg == "--shrink") opt.shrink = true;
    else usage_error("unknown option " + arg);
  }
  if (!find_workload(opt.workload))
    usage_error("unknown workload '" + opt.workload + "'");
  return opt;
}

/// Everything an untraced or traced run measured, before formatting.
struct RunTotals {
  std::size_t passes = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> walls, cpus, latencies;
  std::vector<double> traced_walls;
  std::vector<Metrics> layers;
  PassResult reference;  ///< the first pass: every later pass must equal it
  double simulated_s = 0.0;  ///< simulated seconds per pass
  std::vector<std::string> notes;
};

/// Checks a pass against the reference and folds it into the totals.
void record(RunTotals& run, const PassResult& p, bool traced) {
  std::size_t bad = p.failed;
  if (run.passes == 0 && !traced) {
    run.reference = p;
  } else {
    const std::size_t diff = rows_differing(p, run.reference);
    if (diff > 0)
      run.notes.push_back(std::string(traced ? "traced" : "untraced") +
                          " pass " + std::to_string(run.passes) + ": " +
                          std::to_string(diff) + " rows differ from pass 0");
    bad = std::max(bad, diff);
  }
  run.attempted += std::max(p.rows, run.reference.rows);
  run.failed += std::min(bad, std::max(p.rows, run.reference.rows));
  (traced ? run.traced_walls : run.walls).push_back(p.wall_s);
  std::fprintf(stderr, "pnsbench: pass %zu%s wall %.4f s\n", run.passes,
               traced ? " (traced)" : "", p.wall_s);
  if (!traced) {
    run.cpus.push_back(p.cpu_s);
    run.latencies.insert(run.latencies.end(), p.latency_s.begin(),
                         p.latency_s.end());
  }
  ++run.passes;
}

/// Compares the run's bytes against an independently computed copy
/// (rk23pi parity, or the in-process run of the daemon's jobs).
void check_against(RunTotals& run, const PassResult& want,
                   const std::string& what) {
  const std::size_t diff = rows_differing(run.reference, want);
  run.attempted += want.rows;
  if (diff == 0) return;
  run.failed += diff;
  run.notes.push_back(std::to_string(diff) + " rows differ from " + what);
}

void describe(const Workload& w, const Options& opt, double scale,
              std::size_t jobs_count) {
  if (w.daemon) {
    for (const auto& job : daemon_jobs(w, opt.seed, jobs_count, scale))
      std::printf("%s\n", job.identity().c_str());
    return;
  }
  for (const auto& s : sweep_spec(w, opt.seed, scale).expand())
    std::printf("%s seed=%llu window=[%.17g,%.17g] C=%.17g integrator=%s\n",
                s.label.c_str(), static_cast<unsigned long long>(s.seed),
                s.t_start, s.t_end, s.capacitance_f,
                s.integrator.spec_string().c_str());
}

int run(const Options& opt, Clock::time_point main_start) {
  const Workload& w = *find_workload(opt.workload);
  const double scale = opt.shrink ? 0.05 : 1.0;
  const std::size_t job_count = opt.shrink ? 8 : 100;
  if (opt.describe) {
    describe(w, opt, scale, job_count);
    return 0;
  }

  // ---- setup: registry first use, spec/job expansion, SIMD self-test.
  sweep::ControlRegistry::instance();
  sweep::SourceRegistry::instance();
  sweep::IntegratorRegistry::instance();
  sweep::PlatformRegistry::instance();
  ehsim::simd_kernel_self_test();

  RunTotals run;
  std::vector<sweep::ScenarioSpec> specs;
  std::vector<sweepd::JobSpec> jobs;
  double setup_s = 0.0;
  if (w.daemon) {
    jobs = daemon_jobs(w, opt.seed, job_count, scale);
    // The daemon's setup ends at its first lease: bind, every submission
    // and the workers' connect all come first.
    DaemonPass first = run_daemon_pass(jobs, opt.state_dir, opt.setup_only,
                                       nullptr);
    setup_s = std::chrono::duration<double>(first.first_lease - main_start)
                  .count();
    if (opt.setup_only) {
      std::printf("{\"setup_s\":%.9g}\n", setup_s);
      return first.leased ? 0 : 1;
    }
    if (!first.error.empty()) run.notes.push_back(first.error);
    record(run, first.result, false);
  } else {
    specs = sweep_spec(w, opt.seed, scale).expand();
    partition(specs);
    setup_s = since(main_start);
    if (opt.setup_only) {
      std::printf("{\"setup_s\":%.9g}\n", setup_s);
      return 0;
    }
  }
  for (const auto& s : specs) run.simulated_s += s.duration();
  for (const auto& job : jobs)
    for (const auto& s : job.expand()) run.simulated_s += s.duration();

  // ---- measurement: passes until --seconds is spent.
  auto pass = [&](bool traced) {
    if (w.daemon) {
      Trace tr;
      DaemonPass p = run_daemon_pass(jobs, opt.state_dir, false,
                                     traced ? &tr : nullptr);
      if (!p.error.empty()) run.notes.push_back(p.error);
      record(run, p.result, traced);
      if (traced) {
        Metrics m = layer_metrics(tr);
        m["trace.coverage"] = coverage(tr);
        run.layers.push_back(std::move(m));
      }
      return;
    }
    if (!traced) {
      record(run, run_sweep_pass(specs), false);
      return;
    }
    Trace tr;
    const Clock::time_point t = Clock::now();
    const auto again = sweep_spec(w, opt.seed, scale).expand();
    tr.expand_s = since(t);
    record(run, run_sweep_pass_traced(again, tr), true);
    Metrics m = layer_metrics(tr);
    m["trace.coverage"] = coverage(tr);
    run.layers.push_back(std::move(m));
  };
  const Clock::time_point m0 = Clock::now();
  double slowest = 0.0;
  const std::size_t min_passes = opt.trace ? 2 * kMinPasses : kMinPasses;
  while (run.passes < min_passes || since(m0) + slowest <= opt.seconds) {
    const Clock::time_point p0 = Clock::now();
    pass(opt.trace && run.passes % 2 == 1);
    slowest = std::max(slowest, since(p0));
  }
  const double peak_mb = peak_rss_mb();

  // ---- correctness against an independent computation (untimed).
  if (!w.parity.empty()) {
    std::vector<sweep::ScenarioSpec> parity = specs;
    for (auto& s : parity)
      s.integrator = sweep::IntegratorSpec::parse(w.parity);
    check_against(run, run_sweep_pass(parity), w.parity + " parity");
  }
  double in_process_wall = 0.0;
  if (w.daemon) {
    // The same jobs on an in-process SweepRunner with the daemon's
    // worker count: the bytes the daemon must publish, and the wall its
    // dispatch overhead is measured against.
    std::vector<sweep::ScenarioSpec> all;
    std::vector<std::size_t> sizes;
    for (const auto& job : jobs) {
      auto s = job.expand();
      sizes.push_back(s.size());
      all.insert(all.end(), s.begin(), s.end());
    }
    std::vector<double> walls;
    PassResult want;
    for (int rep = 0; rep < (opt.trace ? 3 : 1); ++rep) {
      Clock::time_point t = Clock::now();
      sweep::SweepRunnerOptions ropt;
      ropt.threads = kDaemonWorkers;
      const auto outcomes = sweep::SweepRunner(ropt).run(all);
      walls.push_back(since(t));
      want = PassResult{};
      std::size_t at = 0;
      for (std::size_t n : sizes) {
        serialize(sweep::Aggregator(std::vector<sweep::SweepOutcome>(
                      outcomes.begin() + at, outcomes.begin() + at + n)),
                  want);
        at += n;
      }
      want.rows = all.size();
    }
    in_process_wall = median(walls);
    check_against(run, want, "the in-process run of the same jobs");
  }

  if (!opt.dump.empty()) {
    std::ofstream out(opt.dump, std::ios::binary);
    out << run.reference.csv << run.reference.json;
    if (!out) run.notes.push_back("cannot write " + opt.dump);
  }
  if (w.daemon) std::filesystem::remove_all(opt.state_dir);
  for (const auto& n : run.notes) std::fprintf(stderr, "pnsbench: %s\n", n.c_str());

  // ---- report.
  Metrics metrics;
  const double wall = median(run.walls);
  if (opt.trace) {
    for (const auto& [name, unused] : run.layers.front()) {
      std::vector<double> v;
      for (const auto& m : run.layers) v.push_back(m.at(name));
      metrics[name] = median(v);
    }
    metrics["trace.overhead_frac"] = ratio(median(run.traced_walls), wall) - 1.0;
    if (w.daemon) {
      const double rows = static_cast<double>(run.reference.rows);
      metrics["sweepd.overhead_ms_per_row"] =
          1e3 * ratio(wall - in_process_wall, rows);
      // The sim/ehsim/sweep-setup layers of the daemon's rows, from one
      // traced in-process replay (the workers are opaque from outside).
      std::vector<sweep::ScenarioSpec> all;
      Trace tr;
      const Clock::time_point t = Clock::now();
      for (const auto& job : jobs) {
        auto s = job.expand();
        all.insert(all.end(), s.begin(), s.end());
      }
      tr.expand_s = since(t);
      run_sweep_pass_traced(all, tr);
      const Metrics replay = layer_metrics(tr);
      for (const char* name :
           {"sweep.expand_s", "sweep.resolve_s", "sweep.source_s",
            "sweep.asset_hit_rate", "sim.build_s", "sim.plan_s",
            "sim.advance_s", "sim.commit_s", "sim.segments",
            "sim.coasted_frac", "sim.event_frac", "sim.ns_per_step",
            "ehsim.rk_steps", "ehsim.rk_reject_frac", "ehsim.pv_calls",
            "ehsim.pv_memo_hit_rate", "ehsim.pv_newton_solves",
            "ehsim.pv_iters_per_solve", "ehsim.pv_packed_frac"})
        metrics[name] = replay.at(name);
    }
  } else {
    metrics["setup_s"] = setup_s;
    metrics["wall_s"] = wall;
    metrics["sim_rate"] = ratio(run.simulated_s, wall);
    metrics["cpu_s"] = median(run.cpus);
    metrics["peak_rss_mb"] = peak_mb;
    metrics["job_latency_p50_s"] = percentile(run.latencies, 0.5);
    metrics["job_latency_p90_s"] = percentile(run.latencies, 0.9);
  }

  std::ostringstream os;
  {
    JsonWriter jw(os, JsonStyle::kCompact);
    jw.begin_object();
    jw.kv("workload", w.name);
    jw.kv("seed", opt.seed);
    jw.kv("passes", static_cast<std::uint64_t>(run.passes));
    jw.kv("rows_per_pass", static_cast<std::uint64_t>(run.reference.rows));
    jw.kv("latency_samples", static_cast<std::uint64_t>(run.latencies.size()));
    jw.kv("attempted", static_cast<std::uint64_t>(run.attempted));
    jw.kv("failed", static_cast<std::uint64_t>(run.failed));
    jw.key("metrics");
    jw.begin_object();
    for (const auto& [name, value] : metrics) jw.kv(name, value);
    jw.end_object();
    jw.end_object();
  }
  std::printf("%s\n", os.str().c_str());
  return run.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point main_start = Clock::now();
  try {
    return run(parse_args(argc, argv), main_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pnsbench: %s\n", e.what());
    return 1;
  }
}
