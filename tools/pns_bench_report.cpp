// pns_bench_report -- machine-readable performance trajectory runner.
//
// Executes the google-benchmark micro suite (bench_micro_hotpaths, when it
// was built) plus wall-clock timings of the `table2` sweep -- exact and
// tabulated PV, the rk23pi / rk23simd integrators (with the PV
// implicit-solve accounting: iteration counts, memo/table hit rates and
// the packed-lane fraction), an asset-reuse A/B, the same sweep
// on the 2-domain biglittle platform (the joint-ladder dispatch tax), and
// the sweep daemon's dispatch overhead (the same sweep through an
// in-process pns_sweepd with 4 local socket workers versus a plain
// 4-thread run) -- and writes one JSON document (BENCH_<n>.json) that
// future PRs append to -- the repo's record that the hot path stays fast:
//
//   pns_bench_report                        # full run, writes BENCH_10.json
//   pns_bench_report --quick --out q.json   # CI smoke (~seconds)
//
// scripts/check_bench_regression.py diffs a fresh report against the
// checked-in baseline. The sweep timing runs in-process; the micro suite
// is spawned as the sibling bench_micro_hotpaths binary so the numbers
// are exactly what a developer gets running it by hand.
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ehsim/sources.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/presets.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "sweepd/client.hpp"
#include "sweepd/daemon.hpp"
#include "sweepd/worker.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace {

using namespace pns;

struct Options {
  std::string out_path = "BENCH_10.json";
  std::string bench_bin;  // empty = <dir of argv[0]>/bench_micro_hotpaths
  double minutes = 60.0;
  unsigned threads = 0;
  bool quick = false;
};

struct MicroResult {
  std::string name;
  double real_time_ns = 0.0;
  double cpu_time_ns = 0.0;
  std::uint64_t iterations = 0;
};

double unit_to_ns(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

std::string strip_quotes(std::string s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
    return s.substr(1, s.size() - 2);
  return s;
}

/// Runs the micro-benchmark binary with CSV output and parses the rows.
/// Returns false (with `error` set) when the binary is missing or fails;
/// the report then records the sweep timings alone.
bool run_micro_suite(const Options& opt, std::vector<MicroResult>& out,
                     std::string& error) {
  const std::string csv_path = opt.out_path + ".micro.csv";
  std::string cmd = "\"" + opt.bench_bin + "\"";
  if (opt.quick) cmd += " --benchmark_min_time=0.05";
  cmd += " --benchmark_format=csv > \"" + csv_path + "\" 2> /dev/null";
  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    error = "running '" + opt.bench_bin + "' failed (exit " +
            std::to_string(rc) + "); was it built?";
    std::remove(csv_path.c_str());
    return false;
  }
  std::ifstream in(csv_path);
  std::string line;
  bool seen_header = false;
  while (std::getline(in, line)) {
    if (line.rfind("name,", 0) == 0) {
      seen_header = true;
      continue;
    }
    if (!seen_header || line.empty()) continue;
    std::vector<std::string> cells;
    std::istringstream ls(line);
    std::string cell;
    while (std::getline(ls, cell, ',')) cells.push_back(cell);
    // name,iterations,real_time,cpu_time,time_unit,...
    if (cells.size() < 5) continue;
    MicroResult r;
    r.name = strip_quotes(cells[0]);
    r.iterations = std::strtoull(cells[1].c_str(), nullptr, 10);
    const double scale = unit_to_ns(cells[4]);
    r.real_time_ns = std::strtod(cells[2].c_str(), nullptr) * scale;
    r.cpu_time_ns = std::strtod(cells[3].c_str(), nullptr) * scale;
    out.push_back(std::move(r));
  }
  std::remove(csv_path.c_str());
  if (out.empty()) {
    error = "no benchmark rows parsed from " + opt.bench_bin;
    return false;
  }
  return true;
}

struct SweepTiming {
  double wall_s = 0.0;
  double simulated_s = 0.0;
  std::size_t scenarios = 0;
  std::size_t failed = 0;
  unsigned threads = 0;
  /// PV implicit-solve accounting summed over the sweep's runs -- where
  /// the time goes and what fraction the packed kernels took.
  ehsim::PvSolveStats pv;
};

SweepTiming time_table2(const Options& opt, ehsim::PvSource::Mode mode,
                        const std::string& integrator = "rk23",
                        bool reuse_assets = true,
                        const std::string& platform = "") {
  auto sw = sweep::table2_sweep(opt.minutes, {42, 43, 44});
  sw.base.pv_mode = mode;
  sw.base.integrator = sweep::IntegratorSpec::parse(integrator);
  if (!platform.empty())
    sw.base.platform_spec = sweep::PlatformSpec::parse(platform);
  const auto specs = sw.expand();

  sweep::SweepRunnerOptions ropt;
  ropt.threads = opt.threads;
  ropt.reuse_assets = reuse_assets;
  sweep::SweepRunner runner(ropt);

  SweepTiming t;
  t.scenarios = specs.size();
  t.threads = runner.effective_threads(specs.size());
  for (const auto& s : specs) t.simulated_s += s.duration();

  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = runner.run(specs);
  t.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  t.failed = sweep::Aggregator(outcomes).failed_count();
  for (const auto& o : outcomes)
    if (o.ok) t.pv += o.result.metrics.pv_solve;
  return t;
}

/// The daemon-dispatch A/B: one `table2` job executed through an
/// in-process daemon with 4 single-threaded local socket workers, versus
/// the identical scenario vector on a plain 4-thread SweepRunner. The
/// difference is what the protocol costs -- one JSON round-trip per row
/// plus lease bookkeeping and journalling.
struct DispatchTiming {
  SweepTiming in_process;
  SweepTiming daemon;
  unsigned workers = 4;
  double overhead_s = 0.0;
  double overhead_per_row_ms = 0.0;
  bool ok = false;
  std::string error;
};

DispatchTiming time_daemon_dispatch(const Options& opt) {
  DispatchTiming t;

  sweepd::JobSpec job;
  job.preset = "table2";
  job.minutes = opt.minutes;
  const auto specs = job.expand();
  double simulated_s = 0.0;
  for (const auto& s : specs) simulated_s += s.duration();

  {
    sweep::SweepRunnerOptions ropt;
    ropt.threads = t.workers;
    sweep::SweepRunner runner(ropt);
    t.in_process.scenarios = specs.size();
    t.in_process.threads = runner.effective_threads(specs.size());
    t.in_process.simulated_s = simulated_s;
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes = runner.run(specs);
    t.in_process.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    t.in_process.failed = sweep::Aggregator(outcomes).failed_count();
  }

  const std::string state_dir = opt.out_path + ".sweepd-state";
  ::mkdir(state_dir.c_str(), 0755);
  std::string job_id;
  try {
    sweepd::DaemonOptions dopt;
    dopt.endpoint = net::Endpoint::parse("tcp:127.0.0.1:0");
    dopt.state_dir = state_dir;
    dopt.idle_poll_s = 0.01;
    sweepd::Daemon daemon(dopt);
    daemon.bind();
    const auto ep = net::Endpoint::parse("tcp:127.0.0.1:" +
                                         std::to_string(daemon.port()));
    std::thread serve([&daemon] { daemon.run(); });

    t.daemon.scenarios = specs.size();
    t.daemon.threads = t.workers;
    t.daemon.simulated_s = simulated_s;
    const auto t0 = std::chrono::steady_clock::now();
    job_id = sweepd::submit_job(ep, job).job;
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < t.workers; ++i)
      workers.emplace_back([&ep] {
        try {
          sweepd::WorkerOptions wopt;
          wopt.endpoint = ep;
          wopt.threads = 1;
          wopt.once = true;
          sweepd::run_worker(wopt);
        } catch (const std::exception& e) {
          // Crashed workers are the daemon's problem (re-lease); the
          // surviving ones finish the job, so timing stays meaningful.
          std::fprintf(stderr, "warning: dispatch worker: %s\n", e.what());
        }
      });
    for (auto& th : workers) th.join();
    t.daemon.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    daemon.stop();
    serve.join();
    for (const auto& js : daemon.jobs())
      if (js.job == job_id) {
        t.daemon.failed = js.failed;
        t.ok = js.complete;
        if (!js.complete) t.error = "daemon job did not complete";
      }
  } catch (const std::exception& e) {
    t.error = e.what();
  }
  if (!job_id.empty()) {
    std::remove((state_dir + "/" + job_id + ".jsonl").c_str());
    std::remove((state_dir + "/" + job_id + ".spec.json").c_str());
  }
  ::rmdir(state_dir.c_str());

  t.overhead_s = t.daemon.wall_s - t.in_process.wall_s;
  t.overhead_per_row_ms =
      specs.empty() ? 0.0
                    : t.overhead_s / static_cast<double>(specs.size()) * 1e3;
  return t;
}

void write_sweep(JsonWriter& w, const SweepTiming& t) {
  w.begin_object();
  w.kv("scenarios", t.scenarios);
  w.kv("failed", t.failed);
  w.kv("threads", static_cast<std::uint64_t>(t.threads));
  w.kv("wall_s", t.wall_s);
  w.kv("simulated_s", t.simulated_s);
  w.kv("sim_realtime_ratio", t.wall_s > 0.0 ? t.simulated_s / t.wall_s : 0.0);
  if (t.pv.calls > 0) {
    const double solves = static_cast<double>(t.pv.newton_solves);
    w.key("pv_solve");
    w.begin_object();
    w.kv("calls", t.pv.calls);
    w.kv("memo_hits", t.pv.memo_hits);
    w.kv("table_hits", t.pv.table_hits);
    w.kv("newton_solves", t.pv.newton_solves);
    w.kv("newton_iterations", t.pv.newton_iterations);
    w.kv("warm_starts", t.pv.warm_starts);
    w.kv("simd_lanes", t.pv.simd_lanes);
    w.kv("iters_per_solve",
         solves > 0.0 ? static_cast<double>(t.pv.newton_iterations) / solves
                      : 0.0);
    w.kv("memo_hit_rate",
         static_cast<double>(t.pv.memo_hits) /
             static_cast<double>(t.pv.calls));
    w.kv("simd_lane_fraction",
         solves > 0.0 ? static_cast<double>(t.pv.simd_lanes) / solves : 0.0);
    w.end_object();
  }
  w.end_object();
}

void print_pv(const char* label, const SweepTiming& t) {
  if (t.pv.calls == 0) return;
  const double solves = static_cast<double>(t.pv.newton_solves);
  std::printf(
      "pv solve %-10s %10llu calls: %5.1f%% memo, %5.1f%% table, "
      "%llu newton (%.2f iters/solve, %5.1f%% warm, %5.1f%% packed)\n",
      label, static_cast<unsigned long long>(t.pv.calls),
      100.0 * static_cast<double>(t.pv.memo_hits) /
          static_cast<double>(t.pv.calls),
      100.0 * static_cast<double>(t.pv.table_hits) /
          static_cast<double>(t.pv.calls),
      static_cast<unsigned long long>(t.pv.newton_solves),
      solves > 0.0 ? static_cast<double>(t.pv.newton_iterations) / solves
                   : 0.0,
      solves > 0.0 ? 100.0 * static_cast<double>(t.pv.warm_starts) / solves
                   : 0.0,
      solves > 0.0 ? 100.0 * static_cast<double>(t.pv.simd_lanes) / solves
                   : 0.0);
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "options:\n"
      "  --out PATH       output JSON path (default BENCH_10.json)\n"
      "  --bench-bin P    micro-benchmark binary (default: next to this "
      "binary)\n"
      "  --minutes M      simulated window of the table2 timing "
      "(default 60)\n"
      "  --threads N      sweep worker threads (default: hardware)\n"
      "  --quick          CI smoke mode: 2-minute windows, short micro "
      "reps\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out")
      opt.out_path = next();
    else if (arg == "--bench-bin")
      opt.bench_bin = next();
    else if (arg == "--minutes")
      opt.minutes = std::atof(next());
    else if (arg == "--threads")
      opt.threads = static_cast<unsigned>(std::atoi(next()));
    else if (arg == "--quick")
      opt.quick = true;
    else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (opt.quick) opt.minutes = 2.0;
  if (opt.bench_bin.empty()) {
    std::string self = argv[0];
    const auto slash = self.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? std::string(".") : self.substr(0, slash);
    opt.bench_bin = dir + "/bench_micro_hotpaths";
  }

  std::vector<MicroResult> micro;
  std::string micro_error;
  const bool micro_ok = run_micro_suite(opt, micro, micro_error);
  if (!micro_ok)
    std::fprintf(stderr, "warning: micro suite skipped: %s\n",
                 micro_error.c_str());

  std::fprintf(stderr, "timing table2 sweep (exact PV, %.0f min)...\n",
               opt.minutes);
  const auto exact = time_table2(opt, ehsim::PvSource::Mode::kExact);
  std::fprintf(stderr, "timing table2 sweep (tabulated PV, %.0f min)...\n",
               opt.minutes);
  const auto tab = time_table2(opt, ehsim::PvSource::Mode::kTabulated);
  std::fprintf(stderr, "timing table2 sweep (rk23pi, %.0f min)...\n",
               opt.minutes);
  const auto pi =
      time_table2(opt, ehsim::PvSource::Mode::kExact, "rk23pi");
  std::fprintf(stderr, "timing table2 sweep (rk23simd, %.0f min)...\n",
               opt.minutes);
  const auto simd =
      time_table2(opt, ehsim::PvSource::Mode::kExact, "rk23simd");
  std::fprintf(stderr,
               "timing table2 sweep (exact PV, no asset reuse, %.0f "
               "min)...\n",
               opt.minutes);
  const auto no_reuse = time_table2(opt, ehsim::PvSource::Mode::kExact,
                                    "rk23", /*reuse_assets=*/false);
  std::fprintf(stderr,
               "timing table2 sweep (biglittle platform, %.0f min)...\n",
               opt.minutes);
  const auto biglittle =
      time_table2(opt, ehsim::PvSource::Mode::kExact, "rk23",
                  /*reuse_assets=*/true, "biglittle");
  std::fprintf(stderr,
               "timing daemon dispatch (4 socket workers vs 4 threads, "
               "%.0f min)...\n",
               opt.minutes);
  const auto dispatch = time_daemon_dispatch(opt);
  if (!dispatch.ok)
    std::fprintf(stderr, "warning: daemon dispatch timing failed: %s\n",
                 dispatch.error.c_str());

  std::ofstream out(opt.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out_path.c_str());
    return 1;
  }
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "pns-bench-report-v1");
  w.kv("generated_unix", static_cast<std::int64_t>(std::time(nullptr)));
  w.kv("quick", opt.quick);
  w.key("table2");
  w.begin_object();
  w.kv("minutes", opt.minutes);
  w.key("exact");
  write_sweep(w, exact);
  w.key("tabulated");
  write_sweep(w, tab);
  w.key("rk23pi");
  write_sweep(w, pi);
  w.key("rk23simd");
  write_sweep(w, simd);
  w.key("exact_no_asset_reuse");
  write_sweep(w, no_reuse);
  w.end_object();
  // Same schemes and windows on the compiled 2-domain platform: what
  // the joint-ladder dispatch and per-domain accounting cost relative
  // to table2.exact. Own section so the mono trajectory stays
  // key-compatible with earlier BENCH_*.json reports.
  w.key("table2_biglittle");
  w.begin_object();
  w.kv("minutes", opt.minutes);
  w.kv("platform", "biglittle");
  w.key("exact");
  write_sweep(w, biglittle);
  w.end_object();
  w.key("daemon_dispatch");
  if (dispatch.ok) {
    w.begin_object();
    w.kv("workers", static_cast<std::uint64_t>(dispatch.workers));
    w.key("in_process");
    write_sweep(w, dispatch.in_process);
    w.key("daemon");
    write_sweep(w, dispatch.daemon);
    w.kv("overhead_s", dispatch.overhead_s);
    w.kv("overhead_per_row_ms", dispatch.overhead_per_row_ms);
    w.end_object();
  } else {
    w.null();
    w.kv("daemon_dispatch_error", dispatch.error);
  }
  w.key("micro");
  if (micro_ok) {
    w.begin_array();
    for (const auto& r : micro) {
      w.begin_object();
      w.kv("name", r.name);
      w.kv("iterations", r.iterations);
      w.kv("real_time_ns", r.real_time_ns);
      w.kv("cpu_time_ns", r.cpu_time_ns);
      w.end_object();
    }
    w.end_array();
  } else {
    w.null();
    w.kv("micro_error", micro_error);
  }
  w.end_object();
  out << "\n";

  std::printf("wrote %s\n", opt.out_path.c_str());
  std::printf("table2 exact: %.2f s wall (%.0fx realtime); tabulated: "
              "%.2f s wall (%.0fx realtime); rk23pi: %.2f s wall "
              "(%.0fx realtime); rk23simd: %.2f s wall (%.0fx realtime); "
              "no asset reuse: %.2f s wall\n",
              exact.wall_s,
              exact.wall_s > 0 ? exact.simulated_s / exact.wall_s : 0.0,
              tab.wall_s, tab.wall_s > 0 ? tab.simulated_s / tab.wall_s : 0.0,
              pi.wall_s, pi.wall_s > 0 ? pi.simulated_s / pi.wall_s : 0.0,
              simd.wall_s,
              simd.wall_s > 0 ? simd.simulated_s / simd.wall_s : 0.0,
              no_reuse.wall_s);
  print_pv("exact:", exact);
  print_pv("tabulated:", tab);
  print_pv("rk23pi:", pi);
  print_pv("rk23simd:", simd);
  std::printf("table2 biglittle: %.2f s wall (%.0fx realtime)\n",
              biglittle.wall_s,
              biglittle.wall_s > 0
                  ? biglittle.simulated_s / biglittle.wall_s
                  : 0.0);
  if (dispatch.ok)
    std::printf("daemon dispatch: %.2f s via daemon + %u workers vs "
                "%.2f s in-process (%+.1f ms/row overhead)\n",
                dispatch.daemon.wall_s, dispatch.workers,
                dispatch.in_process.wall_s, dispatch.overhead_per_row_ms);
  const bool sweeps_ok = exact.failed == 0 && tab.failed == 0 &&
                         pi.failed == 0 && simd.failed == 0 &&
                         no_reuse.failed == 0 &&
                         biglittle.failed == 0 && dispatch.ok &&
                         dispatch.daemon.failed == 0;
  return sweeps_ok ? 0 : 1;
}
