// pns_sweep -- batch scenario-sweep driver.
//
// Runs a built-in named sweep (the paper's headline experiment families)
// across a thread pool and prints the aggregate table, optionally dumping
// CSV/JSON for downstream analysis:
//
//   pns_sweep table2                # Table II: schemes x seeds
//   pns_sweep capacitance           # Table I-style: buffer sizes x weather
//   pns_sweep fig6 --threads 4      # Fig. 6: shadow depths x {static,pns}
//   pns_sweep weather --json out.json --csv out.csv
//
// Control and source selection are open, registry-driven axes addressed
// by spec strings (docs/sweeps.md documents the grammar; `pns_sweep list`
// prints every registered kind and its parameters):
//
//   pns_sweep table2 --control pns --control gov:ondemand:period=0.05
//   pns_sweep quick --source flicker:period=30,depth=0.5
//   pns_sweep quick --source trace:file=day.csv
//
// Production-sweep features (docs/sweeps.md has the full workflow):
//
//   pns_sweep table2 --journal t2.jsonl            # checkpoint every row
//   pns_sweep table2 --journal t2.jsonl --resume   # continue after a kill
//   pns_sweep table2 --shard 0/4 --journal p0.jsonl  # 1 of 4 workers
//   pns_sweep merge --csv out.csv p0.jsonl p1.jsonl p2.jsonl p3.jsonl
//   pns_sweep capacitance --refine --refine-metric brownouts
//
// Against a running `pns_sweepd` daemon (docs/sweepd.md), the same binary
// is the worker and the client:
//
//   pns_sweep worker --connect tcp:host:7654       # pull + execute leases
//   pns_sweep submit table2 --connect tcp:host:7654
//   pns_sweep status --connect tcp:host:7654
//   pns_sweep results job-1 --connect tcp:host:7654 --csv out.csv
//
// Distributed results are byte-identical to a local run of the same
// sweep (tests/sweepd/ and the CI smoke job enforce this).
//
// Sweep outputs are bit-identical across thread counts, interruptions and
// shard counts (verified by tests/sweep/), so --threads/--shard/--resume
// only change wall-clock and durability, never the published aggregate.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "ehsim/sources.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/journal.hpp"
#include "sweep/presets.hpp"
#include "sweep/refine.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "sweepd/client.hpp"
#include "sweepd/worker.hpp"
#include "util/json.hpp"
#include "util/params.hpp"
#include "util/socket.hpp"

namespace {

using namespace pns;

struct Options {
  /// The sweep: preset, window, PV mode, axis overrides, integrator and
  /// platform -- the same description a `submit` hands the daemon.
  sweepd::JobSpec job;
  unsigned threads = 0;  // 0 = hardware_concurrency
  std::string csv_path;
  std::string json_path;
  bool quiet = false;

  // Checkpointing / sharding.
  std::string journal_path;
  bool resume = false;
  bool sharded = false;
  std::size_t shard_k = 0;
  std::size_t shard_n = 1;
  /// Prior journal whose measured wall_s entries balance the shards.
  std::string cost_journal_path;
  /// `compact --out`: compacted journal destination (default: in place).
  std::string out_path;

  // Adaptive refinement.
  bool refine = false;
  sweep::RefineOptions refine_options;

  // Daemon mode (worker/submit/status/results/watch/shutdown).
  std::string connect;  ///< daemon endpoint spec string
  bool once = false;    ///< worker: exit when the work runs dry
  std::string fault_spec;   ///< worker: --fault chaos injection spec
  long max_reconnects = -1; ///< worker: -1 = library default
  /// fsync journal appends (sweep runs) so acknowledged rows survive a
  /// machine crash; a disk round-trip per row.
  bool fsync = false;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s <sweep> [options]\n"
      "       %s list\n"
      "       %s merge [--csv PATH] [--json PATH] [--journal PATH] "
      "[--quiet] JOURNAL...\n"
      "       %s compact [--out PATH] JOURNAL\n"
      "       %s worker --connect EP [--threads N] [--once]\n"
      "                 [--fault SPEC] [--max-reconnects N]\n"
      "       %s submit <sweep> --connect EP [sweep options]\n"
      "       %s status [JOB] --connect EP\n"
      "       %s results JOB --connect EP [--csv/--json/--journal PATH]\n"
      "       %s watch JOB --connect EP\n"
      "       %s shutdown --connect EP\n"
      "\n"
      "sweeps:\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
      argv0);
  for (const auto& p : sweep::sweep_presets())
    std::printf("  %-12s %s\n", p.name.c_str(), p.summary.c_str());
  std::printf(
      "\n"
      "options:\n"
      "  --control S   replace the sweep's control axis with spec string S\n"
      "                (repeatable; e.g. pns:v_q=0.04, gov:ondemand:"
      "period=0.05,\n"
      "                static:opp=4 -- 'list' prints every kind)\n"
      "  --source S    replace the sweep's source axis with spec string S\n"
      "                (repeatable; e.g. shadow:depth=0.2, trace:file=x.csv,"
      "\n"
      "                flicker:period=30,depth=0.5)\n"
      "  --threads N   worker threads (default: hardware concurrency)\n"
      "  --minutes M   simulated window length where applicable "
      "(default 60)\n"
      "  --csv PATH    write the aggregate rows as CSV\n"
      "  --json PATH   write the aggregate rows as JSON\n"
      "  --pv-mode M   PV solve mode: exact (default, bit-reproducible)\n"
      "                or tabulated (interpolation table with a measured\n"
      "                error bound, ~3x faster sweep wall-clock)\n"
      "  --integrator S  integration engine spec string: rk23 (default,\n"
      "                bit-reproducible), rk23pi[:rtol=...,coast=...]\n"
      "                (PI step control + dense events + coasting, ~2x\n"
      "                faster), or rk23simd[:width=...] (rk23pi in\n"
      "                packed lockstep batches, bit-identical to rk23pi\n"
      "                at every width; rk23batch is its retired alias;\n"
      "                docs/performance.md has the grammar)\n"
      "  --platform S  platform topology spec string: mono (default,\n"
      "                the paper's single-domain board) or a multi-domain\n"
      "                kind such as biglittle[:little_cores=4,big_cores=4,\n"
      "                arbiter=demand] (docs/platforms.md has the grammar)\n"
      "  --journal P   append each completed scenario to the checkpoint\n"
      "                journal at P (JSON lines; see docs/sweeps.md);\n"
      "                with merge/results: write the canonical journal\n"
      "                (index order, no timing) of the full row set to P\n"
      "  --fsync       fsync the journal after every append, so rows\n"
      "                survive a machine crash (requires --journal)\n"
      "  --resume      reuse completed rows from an existing --journal\n"
      "                instead of refusing to overwrite it\n"
      "  --shard K/N   run only the K-th (0-based) of N contiguous spec\n"
      "                ranges; requires --journal, fold partial journals\n"
      "                with the merge subcommand\n"
      "  --cost-journal P  balance --shard K/N by the measured wall_s\n"
      "                entries of the prior journal at P (same sweep)\n"
      "                instead of contiguous index ranges\n"
      "  --refine      after the pass, bisect capacitance intervals whose\n"
      "                adjacent rows diverge (adaptive axis refinement)\n"
      "  --refine-metric M  aggregate column compared (default brownouts)\n"
      "  --refine-tol T     relative divergence threshold (default 0.25)\n"
      "  --refine-depth D   maximum bisection rounds (default 3)\n"
      "  --quiet       suppress per-scenario progress\n"
      "\n"
      "daemon mode (`pns_sweepd`; docs/sweepd.md):\n"
      "  --connect EP  daemon endpoint: unix:PATH, tcp:HOST:PORT or\n"
      "                tcp:PORT (required by worker/submit/status/\n"
      "                results/watch/shutdown)\n"
      "  --once        worker: exit once every job is complete instead\n"
      "                of polling for future submissions\n"
      "  --fault SPEC  worker: deterministic fault injection on the daemon\n"
      "                connection (docs/fault-injection.md), e.g.\n"
      "                fault:seed=7,conn_drop=0.05,short_write=0.1\n"
      "  --max-reconnects N  worker: reconnect attempts before giving up\n"
      "                (default 8; 0 = die on the first disconnect)\n");
}

void list_sweeps(std::FILE* os) {
  std::fprintf(os, "valid sweeps:");
  for (const auto& p : sweep::sweep_presets())
    std::fprintf(os, " %s", p.name.c_str());
  std::fprintf(os, " (or the 'list'/'merge' subcommands)\n");
}

void print_params(const std::vector<ParamInfo>& params) {
  for (const auto& p : params) {
    std::string key = p.key + "=<" + p.type + ">";
    std::printf("      %-28s %s", key.c_str(), p.help.c_str());
    if (!p.default_value.empty())
      std::printf(" (default %s)", p.default_value.c_str());
    std::printf("\n");
  }
}

/// One axis of the `list` subcommand: every registered kind with its
/// accepted parameters, the axis's default kind marked.
template <class Axis>
void list_kinds(Axis) {
  std::printf("%ss (--%s KIND[:key=value,...]):\n", Axis::noun, Axis::noun);
  for (const auto& e : sweep::Registry<Axis>::instance().entries()) {
    const bool is_default = e.kind == Axis::default_kind;
    std::printf("  %-16s %s%s\n", e.kind.c_str(), e.summary.c_str(),
                is_default ? " (default)" : "");
    print_params(e.params);
  }
  std::printf("\n");
}

/// The `list` subcommand: every registry axis, the sweep presets and the
/// refine metrics -- generated from the registries, so it cannot go
/// stale.
int run_list() {
  std::apply([](auto... axis) { (list_kinds(axis), ...); }, sweep::Axes{});
  std::printf("sweep presets:\n");
  for (const auto& p : sweep::sweep_presets())
    std::printf("  %-16s %s\n", p.name.c_str(), p.summary.c_str());
  std::printf("\nrefine metrics (--refine-metric):");
  for (const auto& name : sweep::refine_metric_names())
    std::printf(" %s", name.c_str());
  std::printf("\n");
  return 0;
}

/// Writes CSV/JSON side outputs; returns false when any write failed.
bool write_outputs(const sweep::Aggregator& agg, const Options& opt) {
  bool ok = true;
  if (!opt.csv_path.empty()) {
    if (agg.write_csv_file(opt.csv_path)) {
      std::printf("wrote %s\n", opt.csv_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", opt.csv_path.c_str());
      ok = false;
    }
  }
  if (!opt.json_path.empty()) {
    if (agg.write_json_file(opt.json_path)) {
      std::printf("wrote %s\n", opt.json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      ok = false;
    }
  }
  return ok;
}

/// Publishes a complete row set the way merge and results both do: the
/// canonical --journal, then (unless --quiet) `title` and the console
/// table, then --csv/--json. True when every row is ok and every file
/// was written. Throws JournalError when the journal cannot be written.
bool publish(const Options& opt, const sweep::JournalHeader& header,
             const std::map<std::size_t, sweep::SummaryRow>& rows,
             const std::string& title) {
  // --journal: the canonical (index-ordered, timing-free) journal -- the
  // byte-comparable form shared by merge and results (docs/sweepd.md).
  if (!opt.journal_path.empty())
    sweep::write_canonical_journal(opt.journal_path, header, rows);
  std::vector<sweep::SummaryRow> ordered;
  ordered.reserve(rows.size());
  for (const auto& [index, row] : rows) ordered.push_back(row);
  sweep::Aggregator agg(std::move(ordered));
  if (!opt.quiet) {
    std::printf("%s\n\n", title.c_str());
    agg.console_table().print(std::cout);
    std::printf("\n");
  }
  if (!opt.journal_path.empty())
    std::printf("wrote %s\n", opt.journal_path.c_str());
  const bool wrote = write_outputs(agg, opt);
  return agg.failed_count() == 0 && wrote;
}

// The subcommands below report a failure by throwing; main prints it as
// "<subcommand>: <what>" and exits 1. Usage errors return 2 directly.

/// Folds shard journals back into the canonical aggregate.
int run_merge(const std::vector<std::string>& journals, const Options& opt) {
  if (journals.empty()) {
    std::fprintf(stderr, "merge: no journal files given\n");
    return 2;
  }
  sweep::JournalContents first = sweep::read_journal(journals[0]);
  std::map<std::size_t, sweep::SummaryRow> rows = std::move(first.rows);
  for (std::size_t i = 1; i < journals.size(); ++i) {
    sweep::JournalContents part =
        sweep::read_journal(journals[i], first.header);
    // insert (not assign): on an index collision the earlier journal
    // wins, but completed rows of a deterministic sweep are identical
    // anyway.
    rows.insert(part.rows.begin(), part.rows.end());
  }
  if (rows.size() != first.header.total) {
    std::fprintf(stderr,
                 "merge: journals cover %zu of %zu scenarios of sweep "
                 "'%s' -- missing shards or an interrupted worker\n",
                 rows.size(), first.header.total,
                 first.header.sweep.c_str());
    return 1;
  }
  const std::string title = "merged " + std::to_string(journals.size()) +
                            " journal(s): sweep '" + first.header.sweep +
                            "', " + std::to_string(first.header.total) +
                            " scenarios";
  return publish(opt, first.header, rows, title) ? 0 : 1;
}

/// The `compact` subcommand: rewrites a journal as header + one
/// aggregate rows block (sweep::compact_journal).
int run_compact(const std::vector<std::string>& journals,
                const Options& opt) {
  if (journals.size() != 1) {
    std::fprintf(stderr, "compact: expected exactly one journal file\n");
    return 2;
  }
  const std::string& in = journals[0];
  const std::string out = opt.out_path.empty() ? in : opt.out_path;
  const std::size_t rows = sweep::compact_journal(in, out);
  if (!opt.quiet)
    std::printf("compacted %s -> %s (%zu rows)\n", in.c_str(), out.c_str(),
                rows);
  return 0;
}

/// Parses --connect (required for every daemon-mode subcommand).
/// Exits with usage guidance when missing or malformed.
net::Endpoint daemon_endpoint(const Options& opt, const char* subcommand) {
  if (opt.connect.empty()) {
    std::fprintf(stderr,
                 "%s requires --connect (unix:PATH, tcp:HOST:PORT or "
                 "tcp:PORT)\n",
                 subcommand);
    std::exit(2);
  }
  try {
    return net::Endpoint::parse(opt.connect);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid --connect '%s': %s\n",
                 opt.connect.c_str(), e.what());
    std::exit(2);
  }
}

/// `worker --connect EP`: pull and execute leases until the daemon says
/// goodbye (or, with --once, until the work runs dry).
int run_worker_cmd(const Options& opt) {
  sweepd::WorkerOptions wopt;
  wopt.endpoint = daemon_endpoint(opt, "worker");
  wopt.threads = opt.threads;
  wopt.once = opt.once;
  if (opt.max_reconnects >= 0)
    wopt.max_reconnects = static_cast<std::size_t>(opt.max_reconnects);
  if (!opt.fault_spec.empty()) {
    try {
      wopt.fault = fault::make_injector(opt.fault_spec);
      // The same seed also drives the backoff jitter, so a whole chaos
      // session is reproducible from one number.
      wopt.backoff_seed = fault::FaultSpec::parse(opt.fault_spec).seed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "invalid --fault '%s': %s\n",
                   opt.fault_spec.c_str(), e.what());
      return 2;
    }
  }
  if (!opt.quiet) {
    wopt.log = [](const std::string& line) {
      std::fprintf(stderr, "worker: %s\n", line.c_str());
    };
  }
  const sweepd::WorkerReport report = sweepd::run_worker(wopt);
  std::printf(
      "worker: %zu lease(s), %zu row(s), %zu failed, %zu reconnect(s)\n",
      report.leases, report.rows, report.failed, report.reconnects);
  return 0;
}

/// `status [JOB] --connect EP`.
int run_status_cmd(const Options& opt,
                   const std::vector<std::string>& positional) {
  if (positional.size() > 1) {
    std::fprintf(stderr, "status: expected at most one job id\n");
    return 2;
  }
  const sweepd::StatusReport report =
      sweepd::fetch_status(daemon_endpoint(opt, "status"),
                           positional.empty() ? "" : positional[0]);
  std::printf("%zu worker(s) connected, %zu job(s)%s\n", report.workers,
              report.jobs.size(),
              report.degraded ? "  [DEGRADED: leasing paused]" : "");
  if (report.degraded && !report.degraded_reason.empty())
    std::printf("  degraded: %s\n", report.degraded_reason.c_str());
  for (const auto& w : report.worker_info) {
    std::printf(
        "  worker %-3zu %u thread(s), %zu lease(s) held, %zu row(s), "
        "%zu duplicate(s), %zu retry(ies), last seen %.1fs ago\n",
        w.worker, w.threads, w.leases, w.rows, w.duplicates, w.retries,
        w.last_seen_s);
  }
  for (const auto& j : report.jobs) {
    std::printf(
        "  %-8s %4zu/%-4zu done, %zu pending, %zu leased, %zu failed, "
        "%zu duplicate(s)%s  [%s]\n",
        j.job.c_str(), j.done, j.total, j.pending, j.leased, j.failed,
        j.duplicates, j.complete ? ", complete" : "", j.identity.c_str());
  }
  return 0;
}

/// `results JOB --connect EP [--csv/--json/--journal PATH]`: fetch the
/// job's rows and publish them exactly like a local run would.
int run_results_cmd(const Options& opt,
                    const std::vector<std::string>& positional) {
  if (positional.size() != 1) {
    std::fprintf(stderr, "results: expected exactly one job id\n");
    return 2;
  }
  const sweepd::ResultsReport report = sweepd::fetch_results(
      daemon_endpoint(opt, "results"), positional[0]);
  const bool wants_files = !opt.csv_path.empty() ||
                           !opt.json_path.empty() ||
                           !opt.journal_path.empty();
  if (!report.complete && wants_files) {
    // Publishing a partial aggregate would silently break the
    // byte-identity contract with the local run.
    std::fprintf(stderr,
                 "results: %s has %zu of %zu rows; wait for completion "
                 "before writing --csv/--json/--journal\n",
                 report.job.c_str(), report.rows.size(), report.total);
    return 1;
  }
  const std::string title = report.job + ": sweep '" + report.identity +
                            "', " + std::to_string(report.rows.size()) +
                            "/" + std::to_string(report.total) + " rows" +
                            (report.complete ? "" : " (incomplete)");
  const bool published =
      publish(opt, sweep::JournalHeader{report.identity, report.total},
              report.rows, title);
  return report.complete && report.failed == 0 && published ? 0 : 1;
}

/// `watch JOB --connect EP`: subscribe and print each row as it lands.
int run_watch_cmd(const Options& opt,
                  const std::vector<std::string>& positional) {
  if (positional.size() != 1) {
    std::fprintf(stderr, "watch: expected exactly one job id\n");
    return 2;
  }
  std::size_t seen = 0;
  const std::size_t failed = sweepd::watch_job(
      daemon_endpoint(opt, "watch"), positional[0],
      [&](std::size_t index, const sweep::SummaryRow& row) {
        ++seen;
        if (!opt.quiet)
          std::printf("row %4zu  %-40s %s\n", index, row.label.c_str(),
                      row.ok ? "ok" : row.error.c_str());
      });
  std::printf("%s complete: %zu row(s) streamed, %zu failed\n",
              positional[0].c_str(), seen, failed);
  return failed == 0 ? 0 : 1;
}

/// Parses `--shard K/N`; each half follows parse_count's whole-string
/// rule.
bool parse_shard(const std::string& text, Options& opt) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return false;
  std::size_t k = 0, n = 0;
  try {
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    k = parse_count("--shard", text.substr(0, slash), kMax);
    n = parse_count("--shard", text.substr(slash + 1), kMax);
  } catch (const ParamError&) {
    return false;
  }
  if (n == 0 || k >= n) return false;
  opt.sharded = true;
  opt.shard_k = k;
  opt.shard_n = n;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }
  if (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    usage(argv[0]);
    return 0;
  }
  const std::string command = argv[1];
  if (command == "list") return run_list();

  const bool merging = command == "merge";
  const bool compacting = command == "compact";
  const bool submitting = command == "submit";
  // Daemon-mode subcommands (docs/sweepd.md): positionals are job ids or
  // (for submit) the sweep name.
  const bool daemon_cmd = submitting || command == "worker" ||
                          command == "status" || command == "results" ||
                          command == "watch" || command == "shutdown";
  Options opt;
  std::vector<std::string> positionals;
  std::set<std::string> given;  ///< every --flag on the command line

  // Numeric flag values follow util/params' whole-string rule; a
  // malformed or out-of-range one exits 2 naming the flag.
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) given.insert(arg);
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s requires a value\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--control" || arg == "--source" || arg == "--integrator" ||
          arg == "--platform") {
        // Spec strings are validated against the registries up front so
        // a typo fails in milliseconds, not after the sweep ran.
        const std::string spec = next();
        try {
          if (arg == "--control")
            opt.job.controls.push_back(sweep::ControlSpec::parse(spec));
          else if (arg == "--source")
            opt.job.sources.push_back(sweep::SourceSpec::parse(spec));
          else if (arg == "--integrator")
            opt.job.integrator = sweep::IntegratorSpec::parse(spec);
          else
            opt.job.platform = sweep::PlatformSpec::parse(spec);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "invalid %s '%s': %s\n", arg.c_str(),
                       spec.c_str(), e.what());
          std::fprintf(stderr,
                       "run '%s list' for every registered kind and its "
                       "parameters\n",
                       argv[0]);
          return 2;
        }
      } else if (arg == "--threads")
        opt.threads = static_cast<unsigned>(
            parse_count(arg, next(), std::numeric_limits<unsigned>::max()));
      else if (arg == "--minutes")
        opt.job.minutes = parse_number(arg, next());  // > 0: JobSpec
      else if (arg == "--csv")
        opt.csv_path = next();
      else if (arg == "--json")
        opt.json_path = next();
      else if (arg == "--pv-mode") {
        const std::string mode = next();
        if (mode == "exact") {
          opt.job.pv_mode = ehsim::PvSource::Mode::kExact;
        } else if (mode == "tabulated") {
          opt.job.pv_mode = ehsim::PvSource::Mode::kTabulated;
        } else {
          std::fprintf(stderr,
                       "unknown --pv-mode: %s (valid: exact, tabulated)\n",
                       mode.c_str());
          return 2;
        }
      } else if (arg == "--journal")
        opt.journal_path = next();
      else if (arg == "--cost-journal")
        opt.cost_journal_path = next();
      else if (arg == "--out")
        opt.out_path = next();
      else if (arg == "--resume")
        opt.resume = true;
      else if (arg == "--shard") {
        const std::string spec = next();
        if (!parse_shard(spec, opt)) {
          std::fprintf(stderr,
                       "invalid --shard '%s': expected K/N with 0 <= K < N "
                       "(e.g. --shard 0/4)\n",
                       spec.c_str());
          return 2;
        }
      } else if (arg == "--refine")
        opt.refine = true;
      else if (arg == "--refine-metric")
        opt.refine_options.metric = next();
      else if (arg == "--refine-tol")
        opt.refine_options.tolerance =
            parse_number(arg, next(), NumberSign::kNonNegative);
      else if (arg == "--refine-depth")
        opt.refine_options.max_depth = static_cast<int>(
            parse_count(arg, next(), std::numeric_limits<int>::max()));
      else if (arg == "--quiet")
        opt.quiet = true;
      else if (arg == "--connect")
        opt.connect = next();
      else if (arg == "--once")
        opt.once = true;
      else if (arg == "--fault")
        opt.fault_spec = next();
      else if (arg == "--max-reconnects")
        opt.max_reconnects = static_cast<long>(
            parse_count(arg, next(), std::numeric_limits<long>::max()));
      else if (arg == "--fsync")
        opt.fsync = true;
      else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else if ((merging || compacting || daemon_cmd) &&
                 arg.rfind("--", 0) != 0) {
        positionals.push_back(arg);
      } else {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        usage(argv[0]);
        return 2;
      }
    }
  } catch (const ParamError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // Flags that only some commands read: anywhere else they would be
  // silently ignored, so they are refused, naming the flag.
  const bool working = command == "worker";
  const struct {
    const char* flag;
    bool applies;
    const char* where;
  } scoped[] = {{"--out", compacting, "the compact subcommand"},
                {"--connect", daemon_cmd,
                 "the worker/submit/status/results/watch/shutdown "
                 "subcommands"},
                {"--once", working, "the worker subcommand"},
                {"--fault", working, "the worker subcommand"},
                {"--max-reconnects", working, "the worker subcommand"},
                {"--refine-metric", opt.refine, "runs with --refine"},
                {"--refine-tol", opt.refine, "runs with --refine"},
                {"--refine-depth", opt.refine, "runs with --refine"}};
  for (const auto& s : scoped) {
    if (!s.applies && given.count(s.flag) != 0) {
      std::fprintf(stderr, "%s only applies to %s\n", s.flag, s.where);
      return 2;
    }
  }
  try {
    if (working) return run_worker_cmd(opt);
    if (command == "status") return run_status_cmd(opt, positionals);
    if (command == "results") return run_results_cmd(opt, positionals);
    if (command == "watch") return run_watch_cmd(opt, positionals);
    if (merging) return run_merge(positionals, opt);
    if (compacting) return run_compact(positionals, opt);
    if (command == "shutdown") {
      sweepd::shutdown_daemon(daemon_endpoint(opt, "shutdown"));
      std::printf("daemon shut down\n");
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", command.c_str(), e.what());
    return 1;
  }

  // A sweep run or a submission: either way the JobSpec below is the
  // whole description of the sweep, expanded and identified once.
  if (submitting) {
    // The daemon journals the job itself, and `results` publishes it.
    const std::pair<bool, const char*> local_only[] = {
        {!opt.journal_path.empty(), "--journal"},
        {!opt.csv_path.empty(), "--csv"},
        {!opt.json_path.empty(), "--json"},
        {opt.sharded, "--shard"},
        {!opt.cost_journal_path.empty(), "--cost-journal"},
        {opt.resume, "--resume"},
        {opt.refine, "--refine"},
        {opt.fsync, "--fsync"}};
    for (const auto& [given, flag] : local_only) {
      if (given) {
        std::fprintf(stderr,
                     "%s does not apply to submit (the daemon journals the "
                     "job; fetch it with 'pns_sweep results')\n",
                     flag);
        return 2;
      }
    }
    if (positionals.size() != 1) {
      std::fprintf(stderr, "submit: expected exactly one sweep name\n");
      list_sweeps(stderr);
      return 2;
    }
    opt.job.preset = positionals[0];
  } else {
    opt.job.preset = command;
  }
  if (!sweep::find_sweep_preset(opt.job.preset)) {
    std::fprintf(stderr, "unknown sweep: %s\n", opt.job.preset.c_str());
    list_sweeps(stderr);
    return 2;
  }
  std::vector<sweep::ScenarioSpec> specs;
  try {
    specs = opt.job.expand();
  } catch (const sweepd::JobError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (submitting) {
    try {
      const sweepd::SubmitResult result =
          sweepd::submit_job(daemon_endpoint(opt, "submit"), opt.job);
      std::printf("submitted %s: '%s', %zu scenarios\n", result.job.c_str(),
                  result.identity.c_str(), result.total);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "submit: %s\n", e.what());
      return 1;
    }
  }

  if (opt.fsync && opt.journal_path.empty()) {
    std::fprintf(stderr, "--fsync requires --journal\n");
    return 2;
  }

  // Flag consistency: refuse combinations whose output would be partial
  // or ambiguous instead of silently producing the wrong aggregate.
  if (opt.resume && opt.journal_path.empty()) {
    std::fprintf(stderr, "--resume requires --journal\n");
    return 2;
  }
  if (opt.sharded && opt.journal_path.empty()) {
    std::fprintf(stderr,
                 "--shard requires --journal (each worker writes a partial "
                 "journal; fold them with 'pns_sweep merge')\n");
    return 2;
  }
  if (opt.sharded && (!opt.csv_path.empty() || !opt.json_path.empty())) {
    std::fprintf(stderr,
                 "--shard produces a partial result; write the aggregate "
                 "with 'pns_sweep merge --csv/--json JOURNAL...'\n");
    return 2;
  }
  if (opt.sharded && opt.refine) {
    std::fprintf(stderr,
                 "--refine needs the full pass; run it on the merged sweep "
                 "instead of a shard\n");
    return 2;
  }
  if (!opt.cost_journal_path.empty() && !opt.sharded) {
    std::fprintf(stderr,
                 "--cost-journal only balances sharded runs; pass "
                 "--shard K/N\n");
    return 2;
  }
  if (opt.refine && !sweep::metric_accessor(opt.refine_options.metric)) {
    std::fprintf(stderr, "unknown --refine-metric: %s (valid:",
                 opt.refine_options.metric.c_str());
    for (const auto& name : sweep::refine_metric_names())
      std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }

  // The journal identity pins every knob that changes what the scenarios
  // compute -- labels alone would not catch a --minutes mismatch between
  // the original run and the resume.
  const std::string journal_name = opt.job.identity();

  // The shard's index set: contiguous by default; balanced by the prior
  // journal's measured costs when one is given (falls back to contiguous
  // when the journal recorded none).
  sweep::ShardIndices shard_indices;
  if (opt.sharded && !opt.cost_journal_path.empty()) {
    try {
      const sweep::JournalContents prior = sweep::read_journal(
          opt.cost_journal_path,
          sweep::JournalHeader{journal_name, specs.size()});
      shard_indices = sweep::plan_shards(specs.size(), opt.shard_n,
                                         prior.costs)[opt.shard_k];
      if (!opt.quiet && prior.costs.empty())
        std::fprintf(stderr,
                     "note: %s holds no wall_s entries; using contiguous "
                     "shards\n",
                     opt.cost_journal_path.c_str());
    } catch (const sweep::JournalError& e) {
      std::fprintf(stderr, "--cost-journal: %s\n", e.what());
      return 1;
    }
  } else {
    const sweep::ShardRange range =
        opt.sharded
            ? sweep::shard_range(specs.size(), opt.shard_k, opt.shard_n)
            : sweep::ShardRange{0, specs.size()};
    shard_indices.resize(range.size());
    for (std::size_t j = 0; j < range.size(); ++j)
      shard_indices[j] = range.begin + j;
  }

  if (!opt.journal_path.empty() && !opt.resume &&
      std::ifstream(opt.journal_path).good()) {
    std::fprintf(stderr,
                 "journal %s already exists; pass --resume to continue it "
                 "or delete it to start over\n",
                 opt.journal_path.c_str());
    return 2;
  }

  sweep::SweepRunnerOptions ropt;
  ropt.threads = opt.threads;
  if (opt.fsync)
    ropt.journal_durability = sweep::JournalDurability::kFsync;
  if (!opt.quiet) {
    ropt.progress = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\r[%zu/%zu]", done, total);
      if (done == total) std::fprintf(stderr, "\n");
    };
  }
  sweep::SweepRunner runner(ropt);

  // The rows this invocation will run: the shard's, less those a resumed
  // journal already holds (run_checkpointed skips the same ones).
  std::vector<sweep::ScenarioSpec> to_run;
  std::size_t journaled = 0;
  try {
    std::map<std::size_t, sweep::SummaryRow> recorded;
    if (opt.resume && std::ifstream(opt.journal_path).good())
      recorded = sweep::read_journal(opt.journal_path,
                                     sweep::JournalHeader{journal_name,
                                                          specs.size()})
                     .rows;
    for (std::size_t i : shard_indices) {
      if (recorded.count(i))
        ++journaled;
      else
        to_run.push_back(specs[i]);
    }
  } catch (const sweep::JournalError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("sweep '%s': %zu scenarios", opt.job.preset.c_str(),
              specs.size());
  if (opt.sharded) {
    std::printf(", shard %zu/%zu -> %zu spec(s)", opt.shard_k, opt.shard_n,
                shard_indices.size());
    if (!opt.cost_journal_path.empty())
      std::printf(" (cost-balanced)");
  }
  if (journaled > 0)
    std::printf(", %zu in journal, %zu to run", journaled, to_run.size());
  std::printf(" on %u thread(s)\n\n",
              to_run.empty()
                  ? 0u
                  : runner.effective_threads(sweep::work_units(to_run).size()));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<sweep::SummaryRow> rows;
  std::size_t reused = 0;
  std::size_t executed = shard_indices.size();
  try {
    if (opt.journal_path.empty()) {
      const auto outcomes = runner.run(specs);
      rows.reserve(outcomes.size());
      for (const auto& o : outcomes) rows.push_back(sweep::summarize(o));
    } else {
      auto report = runner.run_checkpointed(specs, opt.journal_path,
                                            journal_name, shard_indices);
      rows = std::move(report.rows);
      reused = report.reused;
      executed = report.executed;
    }
  } catch (const sweep::JournalError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  int refine_added = 0;
  if (opt.refine) {
    sweep::RefineOptions ropts = opt.refine_options;
    const auto refined =
        sweep::refine_capacitance_axis(runner, specs, rows, ropts);
    refine_added = static_cast<int>(refined.added);
    rows = refined.rows;
    if (!opt.quiet && refined.added > 0)
      std::fprintf(stderr, "refined: +%zu scenarios over %d round(s)\n",
                   refined.added, refined.rounds);
  }

  sweep::Aggregator agg(std::move(rows));
  agg.console_table().print(std::cout);
  std::printf("\n%zu scenarios in %.2f s (%.2f scenarios/s), %zu failed",
              executed, wall, wall > 0.0 ? executed / wall : 0.0,
              agg.failed_count());
  if (reused > 0) std::printf(", %zu resumed from journal", reused);
  if (refine_added > 0) std::printf(", %d added by refinement", refine_added);
  std::printf("\n");

  const bool wrote = write_outputs(agg, opt);
  return agg.failed_count() == 0 && wrote ? 0 : 1;
}
