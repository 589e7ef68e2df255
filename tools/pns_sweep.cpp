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
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ehsim/sources.hpp"
#include "flag_table.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/journal.hpp"
#include "sweep/presets.hpp"
#include "sweep/refine.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "sweepd/client.hpp"
#include "sweepd/worker.hpp"
#include "util/params.hpp"
#include "util/socket.hpp"

namespace {

using namespace pns;

// The commands; bit i of a flag's `commands` mask is kCommands[i]. A first
// word that names none of them is a sweep preset: a sweep run.
enum Command : unsigned {
  kRun = 1u << 0,
  kSubmit = 1u << 1,
  kWorker = 1u << 2,
  kMerge = 1u << 3,
  kCompact = 1u << 4,
  kResults = 1u << 5,
  kWatch = 1u << 6,
  kStatus = 1u << 7,
  kShutdown = 1u << 8,
  kList = 1u << 9,
};
constexpr const char* kCommands[] = {
    "sweep runs", "submit", "worker", "merge",    "compact",
    "results",    "watch",  "status", "shutdown", "list"};
constexpr unsigned kAxes = kRun | kSubmit;
constexpr unsigned kOutputs = kRun | kMerge | kResults;
/// The daemon-mode commands (docs/sweepd.md); each requires --connect.
constexpr unsigned kDaemon =
    kSubmit | kWorker | kResults | kWatch | kStatus | kShutdown;

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
  /// fsync journal appends so acknowledged rows survive a machine crash;
  /// a disk round-trip per row.
  bool fsync = false;
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

  // Daemon mode: the endpoint, and the worker's own knobs.
  std::optional<net::Endpoint> connect;
  sweepd::WorkerOptions worker;
};

/// Parses a spec string into `out`, or appends it when `out` is an axis.
/// Specs are validated against the registries as they parse, so a typo
/// fails in milliseconds, not after the sweep ran.
template <class T>
void spec(T& out, const std::string& flag, const std::string& text) {
  try {
    if constexpr (requires { out.emplace_back(); })
      out.push_back(T::value_type::parse(text));
    else
      out = T::parse(text);
  } catch (const std::exception& e) {
    throw ParamError("invalid " + flag + " '" + text + "': " + e.what() +
                     "\nrun 'pns_sweep list' for every registered kind "
                     "and its parameters");
  }
}

/// `--shard K/N`; each half follows parse_count's whole-string rule.
void set_shard(Options& o, const std::string& flag, const std::string& text) {
  const std::size_t slash = text.find('/');
  try {
    if (slash == std::string::npos) throw ParamError("no '/'");
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    o.shard_k = parse_count(flag, text.substr(0, slash), kMax);
    o.shard_n = parse_count(flag, text.substr(slash + 1), kMax);
    if (o.shard_k >= o.shard_n) throw ParamError("K >= N");
  } catch (const ParamError&) {
    throw ParamError("invalid " + flag + " '" + text +
                     "': expected K/N with 0 <= K < N (e.g. " + flag +
                     " 0/4)");
  }
  o.sharded = true;
}

const char* needs_journal(const Options& o) {
  return o.journal_path.empty() ? "requires --journal" : nullptr;
}
const char* needs_refine(const Options& o) {
  return o.refine ? nullptr : "only applies to runs with --refine";
}

// Every flag, declared once. The last column refuses the combinations
// whose output would be partial or ambiguous.
constexpr cli::Flag<Options> kFlags[] = {
    {"--control", "SPEC",
     [](auto& o, auto& f, auto& v) { spec(o.job.controls, f, v); },
     "replace the control axis (repeatable; 'list' has kinds)", kAxes},
    {"--source", "SPEC",
     [](auto& o, auto& f, auto& v) { spec(o.job.sources, f, v); },
     "replace the source axis (repeatable; 'list' has kinds)", kAxes},
    {"--integrator", "SPEC",
     [](auto& o, auto& f, auto& v) { spec(o.job.integrator, f, v); },
     "engine: rk23 (default), rk23pi or rk23simd[:width=N]", kAxes},
    {"--platform", "SPEC",
     [](auto& o, auto& f, auto& v) { spec(o.job.platform, f, v); },
     "topology: mono (default) or multi-domain, e.g. biglittle", kAxes},
    {"--minutes", "M",
     [](auto& o, auto& f, auto& v) { o.job.minutes = parse_number(f, v); },
     "simulated window where the preset takes one (default 60)", kAxes},
    {"--pv-mode", "MODE",
     [](auto& o, auto& f, auto& v) {
       if (v != "exact" && v != "tabulated")
         throw ParamError("unknown " + f + ": " + v +
                          " (valid: exact, tabulated)");
       o.job.pv_mode = v == "exact" ? ehsim::PvSource::Mode::kExact
                                    : ehsim::PvSource::Mode::kTabulated;
     },
     "PV solve: exact (default, bit-reproducible) or tabulated", kAxes},
    {"--threads", "N",
     [](auto& o, auto& f, auto& v) {
       o.threads = static_cast<unsigned>(
           parse_count(f, v, std::numeric_limits<unsigned>::max()));
     },
     "worker threads (default: hardware concurrency)", kRun | kWorker},
    {"--csv", "PATH", [](auto& o, auto&, auto& v) { o.csv_path = v; },
     "write the aggregate rows as CSV", kOutputs},
    {"--json", "PATH", [](auto& o, auto&, auto& v) { o.json_path = v; },
     "write the aggregate rows as JSON", kOutputs},
    {"--journal", "PATH", [](auto& o, auto&, auto& v) { o.journal_path = v; },
     "checkpoint each row (merge/results: canonical journal)", kOutputs},
    {"--fsync", nullptr, [](auto& o, auto&, auto&) { o.fsync = true; },
     "fsync the journal after every append", kRun, needs_journal},
    {"--resume", nullptr, [](auto& o, auto&, auto&) { o.resume = true; },
     "reuse the completed rows of an existing journal", kRun,
     needs_journal},
    {"--shard", "K/N", set_shard,
     "run only the K-th (0-based) of N spec shards", kRun,
     [](auto& o) -> const char* {
       if (o.journal_path.empty())
         return "requires --journal (each worker writes a partial journal; "
                "fold them with 'pns_sweep merge')";
       if (!o.csv_path.empty() || !o.json_path.empty())
         return "produces a partial result; write the aggregate with "
                "'pns_sweep merge --csv/--json JOURNAL...'";
       return nullptr;
     }},
    {"--cost-journal", "PATH",
     [](auto& o, auto&, auto& v) { o.cost_journal_path = v; },
     "balance the shards by a prior journal's wall_s", kRun,
     [](auto& o) -> const char* {
       return o.sharded ? nullptr
                        : "only balances sharded runs; pass --shard K/N";
     }},
    {"--refine", nullptr, [](auto& o, auto&, auto&) { o.refine = true; },
     "bisect capacitance intervals whose neighbours diverge", kRun,
     [](auto& o) -> const char* {
       return o.sharded ? "needs the full pass; run it on the merged sweep "
                          "instead of a shard"
                        : nullptr;
     }},
    {"--refine-metric", "M",
     [](auto& o, auto&, auto& v) { o.refine_options.metric = v; },
     "aggregate column compared (default brownouts)", kRun, needs_refine},
    {"--refine-tol", "T",
     [](auto& o, auto& f, auto& v) {
       o.refine_options.tolerance =
           parse_number(f, v, NumberSign::kNonNegative);
     },
     "relative divergence threshold (default 0.25)", kRun, needs_refine},
    {"--refine-depth", "D",
     [](auto& o, auto& f, auto& v) {
       o.refine_options.max_depth = static_cast<int>(
           parse_count(f, v, std::numeric_limits<int>::max()));
     },
     "maximum bisection rounds (default 3)", kRun, needs_refine},
    {"--quiet", nullptr, [](auto& o, auto&, auto&) { o.quiet = true; },
     "suppress progress output", kOutputs | kWorker | kCompact | kWatch},
    {"--out", "PATH", [](auto& o, auto&, auto& v) { o.out_path = v; },
     "compacted journal destination (default: in place)", kCompact},
    {"--connect", "EP",
     [](auto& o, auto& f, auto& v) {
       o.connect = cli::parse_value(f, v, net::Endpoint::parse);
     },
     "daemon endpoint: unix:PATH, tcp:HOST:PORT or tcp:PORT", kDaemon},
    {"--once", nullptr, [](auto& o, auto&, auto&) { o.worker.once = true; },
     "exit once every job is complete instead of polling", kWorker},
    {"--fault", "SPEC",
     [](auto& o, auto& f, auto& v) {
       o.worker.fault = cli::parse_value(f, v, fault::make_injector);
       // The same seed also drives the backoff jitter, so a whole chaos
       // session is reproducible from one number.
       o.worker.backoff_seed = o.worker.fault->spec().seed;
     },
     "fault injection on the daemon connection (chaos runs)", kWorker},
    {"--max-reconnects", "N",
     [](auto& o, auto& f, auto& v) {
       o.worker.max_reconnects =
           parse_count(f, v, std::numeric_limits<long>::max());
     },
     "reconnect attempts before giving up (default 8)", kWorker},
};

void usage(const char* argv0) {
  std::printf("usage: %s <sweep> [options]\n", argv0);
  for (const char* synopsis :
       {"list", "merge [options] JOURNAL...", "compact [options] JOURNAL",
        "worker --connect EP [options]",
        "submit <sweep> --connect EP [options]", "status [JOB] --connect EP",
        "results JOB --connect EP [options]",
        "watch JOB --connect EP [options]", "shutdown --connect EP"})
    std::printf("       %s %s\n", argv0, synopsis);
  std::printf("\nsweeps:\n");
  for (const auto& p : sweep::sweep_presets())
    std::printf("  %-12s %s\n", p.name.c_str(), p.summary.c_str());
  std::printf("\noptions, each with the commands that read it:\n");
  cli::print_flags<Options>(kFlags, kCommands);
}

void list_sweeps(std::FILE* os) {
  std::fprintf(os, "valid sweeps:");
  for (const auto& p : sweep::sweep_presets())
    std::fprintf(os, " %s", p.name.c_str());
  std::fprintf(os, " (or the %s subcommands)\n",
               cli::command_list(~kRun, kCommands).c_str());
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

/// `worker --connect EP`: pull and execute leases until the daemon says
/// goodbye (or, with --once, until the work runs dry).
int run_worker_cmd(const Options& opt) {
  sweepd::WorkerOptions wopt = opt.worker;
  wopt.endpoint = *opt.connect;
  wopt.threads = opt.threads;
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
      sweepd::fetch_status(*opt.connect,
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
  const sweepd::ResultsReport report =
      sweepd::fetch_results(*opt.connect, positional[0]);
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
      *opt.connect, positional[0],
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  unsigned cmd = kRun;
  for (std::size_t i = 1; i < std::size(kCommands); ++i)
    if (command == kCommands[i]) cmd = 1u << i;

  // Positionals: the journals of merge and compact, the job ids of the
  // daemon-mode subcommands (docs/sweepd.md) and submit's sweep name. A
  // first word that is an option (--help) is parsed as one.
  Options opt;
  const auto [given, positionals] =
      cli::parse(argc, argv, command[0] == '-' ? 1 : 2, kFlags, opt,
                 (cmd & (kRun | kList)) == 0, usage);

  // A flag the command does not read would be silently ignored, so it is
  // refused, naming it; then every given flag's prerequisite must hold.
  for (const auto* flag : given) {
    if (flag->commands & cmd) continue;
    if (cmd == kSubmit && (flag->commands & kRun))
      std::fprintf(stderr,
                   "%s does not apply to submit (the daemon journals the "
                   "job; fetch it with 'pns_sweep results')\n",
                   flag->name);
    else
      std::fprintf(stderr, "%s only applies to %s\n", flag->name,
                   cli::command_list(flag->commands, kCommands).c_str());
    return 2;
  }
  for (const auto* flag : given) {
    if (const char* unmet = flag->unmet ? flag->unmet(opt) : nullptr) {
      std::fprintf(stderr, "%s %s\n", flag->name, unmet);
      return 2;
    }
  }
  if ((cmd & kDaemon) && !opt.connect) {
    std::fprintf(stderr,
                 "%s requires --connect (unix:PATH, tcp:HOST:PORT or "
                 "tcp:PORT)\n",
                 command.c_str());
    return 2;
  }

  try {
    if (cmd == kList) return run_list();
    if (cmd == kWorker) return run_worker_cmd(opt);
    if (cmd == kStatus) return run_status_cmd(opt, positionals);
    if (cmd == kResults) return run_results_cmd(opt, positionals);
    if (cmd == kWatch) return run_watch_cmd(opt, positionals);
    if (cmd == kMerge) return run_merge(positionals, opt);
    if (cmd == kCompact) return run_compact(positionals, opt);
    if (cmd == kShutdown) {
      sweepd::shutdown_daemon(*opt.connect);
      std::printf("daemon shut down\n");
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", command.c_str(), e.what());
    return 1;
  }

  // A sweep run or a submission: either way the JobSpec below is the
  // whole description of the sweep, expanded and identified once.
  const bool submitting = cmd == kSubmit;
  if (submitting) {
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
          sweepd::submit_job(*opt.connect, opt.job);
      std::printf("submitted %s: '%s', %zu scenarios\n", result.job.c_str(),
                  result.identity.c_str(), result.total);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "submit: %s\n", e.what());
      return 1;
    }
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
