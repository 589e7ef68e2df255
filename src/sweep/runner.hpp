// Multi-threaded sweep execution with optional checkpointing + sharding.
//
// A SweepRunner executes N independent scenarios over a fixed pool of
// std::thread workers. Scenarios are embarrassingly parallel: every task
// builds its own one-shot SimEngine (engines are single-use and not
// thread-safe), reads its weather trace from the run's shared asset cache
// (sweep/assets.hpp), and writes its outcome to a pre-sized slot -- so
// results arrive in spec order and a run's aggregate output is
// bit-identical whether it executed on 1 thread or N (verified by
// tests/sweep/test_sweep.cpp). A task is a work unit
// (work_units): one scenario, or for a batch-capable integrator a run of
// adjacent compatible scenarios stepped in lockstep, whose rows are
// still reported one by one as each finishes.
//
// On top of the plain batch executor, run_checkpointed()/resume() journal
// every completed scenario to an append-only file (sweep/journal.hpp) and
// reuse journaled rows on a re-run, and shard_range() carves the spec
// vector into contiguous per-worker ranges whose partial journals
// `pns_sweep merge` folds back into the canonical aggregate.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sweep/aggregate.hpp"
#include "sweep/assets.hpp"
#include "sweep/journal.hpp"
#include "sweep/scenario.hpp"

namespace pns::sweep {

struct SweepRunnerOptions {
  /// Worker count; 0 means std::thread::hardware_concurrency() (and never
  /// more threads than work units).
  unsigned threads = 0;
  /// Optional progress callback, invoked after each scenario completes
  /// with (completed, total) -- a lockstep row as soon as its own lane is
  /// done, not when its unit is. Called from worker threads under a
  /// mutex.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Optional per-outcome callback, invoked with the index of the spec in
  /// the vector passed to run() and its completed outcome. Called from
  /// worker threads under the same mutex as `progress`, once per spec, in
  /// completion order (not spec order). The checkpoint journal hangs off
  /// this hook. The outcome's wall_s is the row's cost: a scalar row's
  /// own wall, a lockstep row's share of its unit's wall (see
  /// run_scenarios_batched), so a unit's row costs sum to its wall.
  std::function<void(std::size_t, const SweepOutcome&)> on_outcome;
  /// Durability of run_checkpointed's journal appends: kFsync makes an
  /// acknowledged row survive a machine crash, at a disk round-trip per
  /// row (`pns_sweep --fsync`). Identical journal bytes either way.
  JournalDurability journal_durability = JournalDurability::kFlush;
};

/// Contiguous half-open index range [begin, end) of specs: one shard,
/// or one work unit (work_units).
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool contains(std::size_t i) const { return i >= begin && i < end; }
};

/// The k-th of n contiguous shards over `total` specs (0-based k < n).
/// Shard sizes differ by at most one and the n ranges exactly partition
/// [0, total) -- so independent `--shard k/n` worker invocations cover
/// every scenario exactly once.
ShardRange shard_range(std::size_t total, std::size_t k, std::size_t n);

/// SweepRunner::run's work units over `specs`, in spec order: for a
/// batch-capable integrator kind, maximal runs of adjacent
/// batch_compatible specs capped at the kind's batch_width (one lockstep
/// sim::BatchEngine each); a singleton per spec otherwise. A pure
/// function of the spec list, never of scheduling, so outputs stay
/// independent of thread count.
std::vector<ShardRange> work_units(const std::vector<ScenarioSpec>& specs);

/// Sorted global spec indices of one (possibly non-contiguous) shard.
using ShardIndices = std::vector<std::size_t>;

/// Plans `n` shards over `total` specs, balanced by measured
/// per-scenario cost. `costs` maps global spec index to wall-clock
/// seconds (typically JournalContents::costs from a prior run of the
/// same sweep); specs with no measured cost assume the mean of the
/// known ones. Assignment is deterministic LPT (longest processing
/// time): specs in descending cost order (ties by index) each go to the
/// currently lightest shard (ties by shard number) -- so every worker
/// invocation of `--shard K/N --cost-journal J` computes the same
/// partition. With no costs at all this degrades to exactly the
/// contiguous shard_range partition. The returned index sets are sorted
/// ascending and tile [0, total) exactly.
std::vector<ShardIndices> plan_shards(
    std::size_t total, std::size_t n,
    const std::map<std::size_t, double>& costs);

/// What a checkpointed (resumable) execution produced.
struct ResumeReport {
  /// One row per spec in the executed range, in spec order.
  std::vector<SummaryRow> rows;
  std::size_t reused = 0;    ///< rows loaded from the journal
  std::size_t executed = 0;  ///< scenarios freshly simulated
  std::size_t failed = 0;    ///< rows (reused or fresh) with ok == false
};

/// Fixed-pool batch executor for simulation scenarios.
///
/// Threading/determinism contract: specs are claimed from an atomic
/// cursor, each worker simulates on private state only (the asset cache
/// it shares holds immutable traces), and outcomes land
/// in pre-sized spec-order slots. No reduction happens on worker threads,
/// so the aggregate produced from run()'s return value is a pure function
/// of the spec vector -- independent of thread count, scheduling, and
/// (via the journal round-trip guarantees in aggregate.hpp) of how many
/// interruptions or shards the sweep was executed across.
class SweepRunner {
 public:
  explicit SweepRunner(SweepRunnerOptions options = {});

  /// Executes every spec and returns outcomes in spec order.
  std::vector<SweepOutcome> run(const std::vector<ScenarioSpec>& specs) const;

  /// Same, but reports each outcome to `on_outcome` in place of
  /// options.on_outcome (same threading and ordering contract) and, when
  /// `assets` is non-null, looks scenario assets up in `*assets`, shared
  /// by all of the run's threads. A caller that keeps `*assets` across
  /// calls reuses assets between them (a sweep daemon worker over its
  /// session's leases). Null keeps run(specs)'s behaviour: one cache on
  /// this call's stack, shared by its threads and gone when it returns,
  /// so a one-shot sweep's memory profile is that of a plain run.
  std::vector<SweepOutcome> run(
      const std::vector<ScenarioSpec>& specs,
      const std::function<void(std::size_t, const SweepOutcome&)>& on_outcome,
      ScenarioAssets* assets) const;

  /// Convenience: expand + run.
  std::vector<SweepOutcome> run(const SweepSpec& sweep) const;

  /// Checkpointed execution of specs[range] against the journal at
  /// `journal_path`:
  ///  - no journal file (or an empty path ""): plain run, but when a path
  ///    is given a fresh journal is created and every completed scenario
  ///    is appended to it as it finishes;
  ///  - an existing journal (validated against `sweep_name` and
  ///    specs.size(), and each reused row against its spec's label) seeds
  ///    the result; only the missing scenarios are simulated.
  /// Rows in the journal are reused as-is, ok or not -- delete the
  /// journal to force a full re-run. Throws JournalError on an identity
  /// mismatch. The returned rows cover exactly [range.begin, range.end).
  ResumeReport run_checkpointed(const std::vector<ScenarioSpec>& specs,
                                const std::string& journal_path,
                                const std::string& sweep_name,
                                ShardRange range) const;

  /// Checkpointed execution of an explicit (sorted, duplicate-free)
  /// index set -- the cost-balanced sharding entry point (plan_shards).
  /// Rows are returned in ascending index order; everything else matches
  /// the range overload.
  ResumeReport run_checkpointed(const std::vector<ScenarioSpec>& specs,
                                const std::string& journal_path,
                                const std::string& sweep_name,
                                const ShardIndices& indices) const;

  /// Checkpointed execution of the full spec vector: the interrupted-
  /// overnight-run entry point. Equivalent to run_checkpointed over
  /// [0, specs.size()).
  ResumeReport resume(const std::vector<ScenarioSpec>& specs,
                      const std::string& journal_path,
                      const std::string& sweep_name) const;

  /// The worker count run() will actually use for `units` work units
  /// (work_units(specs).size()): the thread option, capped at the unit
  /// count -- a thread without a unit would exit at once.
  unsigned effective_threads(std::size_t units) const;

 private:
  SweepRunnerOptions options_;
};

}  // namespace pns::sweep
