// Multi-threaded sweep execution with optional checkpointing + sharding.
//
// A SweepRunner executes N independent scenarios over a fixed pool of
// std::thread workers. Scenarios are embarrassingly parallel: every task
// builds its own one-shot SimEngine (engines are single-use and not
// thread-safe), its own weather trace from the spec's seed, and writes its
// outcome to a pre-sized slot -- so results arrive in spec order and a
// run's aggregate output is bit-identical whether it executed on 1 thread
// or N (verified by tests/sweep/test_sweep.cpp).
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
  /// more threads than scenarios).
  unsigned threads = 0;
  /// Optional progress callback, invoked after each scenario completes
  /// with (completed, total). Called from worker threads under a mutex.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Optional per-outcome callback, invoked with the index of the spec in
  /// the vector passed to run() and its completed outcome. Called from
  /// worker threads under the same mutex as `progress`, in completion
  /// order (not spec order). The checkpoint journal hangs off this hook.
  std::function<void(std::size_t, const SweepOutcome&)> on_outcome;
  /// Durability of run_checkpointed's journal appends: kFsync makes an
  /// acknowledged row survive a machine crash, at a disk round-trip per
  /// row (`pns_sweep --fsync`). Identical journal bytes either way.
  JournalDurability journal_durability = JournalDurability::kFlush;
};

/// Contiguous half-open index range [begin, end) of one shard.
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
/// cursor, each worker simulates on private state only, and outcomes land
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
  /// `caches` is non-null, looks scenario assets up in `*caches` -- one
  /// ScenarioAssets per thread slot, grown to the thread count. A caller
  /// that keeps `*caches` across calls reuses assets between them (a
  /// sweep daemon worker over the leases of one job); two concurrent
  /// calls must not share it. Null keeps run(specs)'s behaviour: each
  /// worker thread's cache lives on its own stack and dies with it, so a
  /// one-shot sweep's memory profile is that of a plain run.
  std::vector<SweepOutcome> run(
      const std::vector<ScenarioSpec>& specs,
      const std::function<void(std::size_t, const SweepOutcome&)>& on_outcome,
      std::vector<ScenarioAssets>* caches) const;

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

  /// The worker count run() will actually use for `n` scenarios.
  unsigned effective_threads(std::size_t n) const;

 private:
  SweepRunnerOptions options_;
};

}  // namespace pns::sweep
