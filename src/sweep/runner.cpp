#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "sweep/assets.hpp"
#include "util/contracts.hpp"

namespace pns::sweep {

SweepRunner::SweepRunner(SweepRunnerOptions options)
    : options_(std::move(options)) {}

unsigned SweepRunner::effective_threads(std::size_t units) const {
  unsigned t = options_.threads;
  if (t == 0) t = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<std::size_t>(t, std::max<std::size_t>(units, 1)));
}

ShardRange shard_range(std::size_t total, std::size_t k, std::size_t n) {
  PNS_EXPECTS(n > 0);
  PNS_EXPECTS(k < n);
  // floor(k*total/n) boundaries: contiguous, sizes differ by at most one,
  // and consecutive shards tile [0, total) exactly.
  return ShardRange{k * total / n, (k + 1) * total / n};
}

std::vector<ShardIndices> plan_shards(
    std::size_t total, std::size_t n,
    const std::map<std::size_t, double>& costs) {
  PNS_EXPECTS(n > 0);
  std::vector<ShardIndices> shards(n);
  if (total == 0) return shards;

  if (costs.empty()) {
    // No measurements: exactly the contiguous partition, so the planned
    // and unplanned CLI paths agree when there is nothing to plan from.
    for (std::size_t k = 0; k < n; ++k) {
      const ShardRange r = shard_range(total, k, n);
      shards[k].resize(r.size());
      std::iota(shards[k].begin(), shards[k].end(), r.begin);
    }
    return shards;
  }

  // Unmeasured specs (fresh rows a prior partial journal never ran)
  // assume the mean measured cost.
  double sum = 0.0;
  std::size_t known = 0;
  for (const auto& [i, c] : costs) {
    if (i >= total) continue;
    sum += std::max(c, 0.0);
    ++known;
  }
  const double mean = known > 0 ? sum / static_cast<double>(known) : 1.0;

  // LPT greedy: heaviest spec first onto the lightest shard. Ties break
  // by index / shard number, so the partition is a pure function of
  // (total, n, costs).
  std::vector<std::pair<double, std::size_t>> items;
  items.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto it = costs.find(i);
    items.emplace_back(it != costs.end() ? std::max(it->second, 0.0) : mean,
                       i);
  }
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<double> load(n, 0.0);
  for (const auto& [cost, index] : items) {
    std::size_t lightest = 0;
    for (std::size_t k = 1; k < n; ++k)
      if (load[k] < load[lightest]) lightest = k;
    load[lightest] += cost;
    shards[lightest].push_back(index);
  }
  for (auto& shard : shards) std::sort(shard.begin(), shard.end());
  return shards;
}

std::vector<SweepOutcome> SweepRunner::run(
    const std::vector<ScenarioSpec>& specs) const {
  return run(specs, options_.on_outcome, nullptr);
}

std::vector<ShardRange> work_units(const std::vector<ScenarioSpec>& specs) {
  std::vector<ShardRange> units;
  units.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size();) {
    std::size_t end = i + 1;
    const std::size_t width = batch_width(specs[i]);
    while (end < specs.size() && end - i < width &&
           batch_compatible(specs[i], specs[end]))
      ++end;
    units.push_back(ShardRange{i, end});
    i = end;
  }
  return units;
}

std::vector<SweepOutcome> SweepRunner::run(
    const std::vector<ScenarioSpec>& specs,
    const std::function<void(std::size_t, const SweepOutcome&)>& on_outcome,
    ScenarioAssets* assets) const {
  std::vector<SweepOutcome> outcomes(specs.size());
  if (specs.empty()) return outcomes;

  // The partition is a pure function of the spec list -- never of
  // scheduling -- so outputs stay independent of thread count, and
  // batching itself never changes a row's bytes (see
  // sim/batch_engine.hpp).
  const std::vector<ShardRange> units = work_units(specs);

  // One asset cache for the run -- the caller's, or one on this stack --
  // shared by every worker thread: rows that share a weather trace reuse
  // one instance instead of re-synthesising it, whichever thread runs
  // them (results are bit-identical, so the thread-count independence
  // guarantee is unaffected).
  ScenarioAssets local;
  ScenarioAssets& cache = assets ? *assets : local;

  std::atomic<std::size_t> next{0};
  std::size_t done = 0;  // guarded by progress_mutex
  std::mutex progress_mutex;

  // Counts, journals and reports one finished row under one lock, so
  // completion counts reach the callbacks in order and appends never
  // interleave.
  auto report = [&](std::size_t i) {
    if (!options_.progress && !on_outcome) return;
    std::lock_guard<std::mutex> lock(progress_mutex);
    if (on_outcome) on_outcome(i, outcomes[i]);
    if (options_.progress) options_.progress(++done, specs.size());
  };

  auto worker = [&] {
    for (;;) {
      const std::size_t u = next.fetch_add(1, std::memory_order_relaxed);
      if (u >= units.size()) return;
      const ShardRange unit = units[u];
      if (batch_width(specs[unit.begin]) == 0) {
        run_scenario_outcome(specs[unit.begin], cache, outcomes[unit.begin]);
        report(unit.begin);
        continue;
      }
      // Lockstep path (also for a lone row: width=1 degenerates to the
      // scalar call sequence inside BatchEngine, bit-identically). Each
      // row is reported the moment its lane finishes, with its own share
      // of the unit's wall as wall_s.
      run_scenarios_batched(specs.data() + unit.begin, unit.size(), cache,
                            [&](std::size_t r, SweepOutcome&& out) {
                              outcomes[unit.begin + r] = std::move(out);
                              report(unit.begin + r);
                            });
    }
  };

  const unsigned n_threads = effective_threads(units.size());
  if (n_threads <= 1) {
    worker();
    return outcomes;
  }
  std::vector<std::thread> pool;
  pool.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  return outcomes;
}

std::vector<SweepOutcome> SweepRunner::run(const SweepSpec& sweep) const {
  return run(sweep.expand());
}

ResumeReport SweepRunner::run_checkpointed(
    const std::vector<ScenarioSpec>& specs, const std::string& journal_path,
    const std::string& sweep_name, ShardRange range) const {
  PNS_EXPECTS(range.begin <= range.end && range.end <= specs.size());
  ShardIndices indices(range.size());
  std::iota(indices.begin(), indices.end(), range.begin);
  return run_checkpointed(specs, journal_path, sweep_name, indices);
}

ResumeReport SweepRunner::run_checkpointed(
    const std::vector<ScenarioSpec>& specs, const std::string& journal_path,
    const std::string& sweep_name, const ShardIndices& indices) const {
  for (std::size_t j = 0; j < indices.size(); ++j) {
    PNS_EXPECTS(indices[j] < specs.size());
    PNS_EXPECTS(j == 0 || indices[j] > indices[j - 1]);  // sorted, unique
  }
  // Load whatever a previous (possibly killed) invocation recorded.
  std::map<std::size_t, SummaryRow> done;
  std::optional<JournalWriter> journal;
  if (!journal_path.empty()) {
    CheckpointJournal checkpoint = CheckpointJournal::open(
        journal_path, JournalHeader{sweep_name, specs.size()}, specs,
        options_.journal_durability);
    done = std::move(checkpoint.recorded.rows);
    journal.emplace(std::move(checkpoint.writer));
  }

  // Gather the shard's pending specs (journal misses), keeping their
  // global indices for the journal lines and the final spec-order stitch.
  std::vector<ScenarioSpec> pending;
  std::vector<std::size_t> global_index;
  for (std::size_t i : indices) {
    if (!done.count(i)) {
      pending.push_back(specs[i]);
      global_index.push_back(i);
    }
  }

  ResumeReport report;
  report.executed = pending.size();

  // Fresh rows land in the journal as they complete (crash durability)
  // and in `fresh` for the stitch below. on_outcome already runs under
  // the runner's completion mutex, so the writer needs no extra locking.
  std::vector<SummaryRow> fresh(pending.size());
  const auto record = [&](std::size_t pi, const SweepOutcome& out) {
    fresh[pi] = summarize(out);
    if (journal) journal->append(global_index[pi], fresh[pi], out.wall_s);
    if (options_.on_outcome) options_.on_outcome(global_index[pi], out);
  };
  run(pending, record, nullptr);

  report.rows.reserve(indices.size());
  std::size_t next_fresh = 0;
  for (std::size_t i : indices) {
    auto it = done.find(i);
    if (it != done.end()) {
      report.rows.push_back(std::move(it->second));
      ++report.reused;
    } else {
      report.rows.push_back(std::move(fresh[next_fresh++]));
    }
    if (!report.rows.back().ok) ++report.failed;
  }
  PNS_ENSURES(next_fresh == fresh.size());
  return report;
}

ResumeReport SweepRunner::resume(const std::vector<ScenarioSpec>& specs,
                                 const std::string& journal_path,
                                 const std::string& sweep_name) const {
  return run_checkpointed(specs, journal_path, sweep_name,
                          ShardRange{0, specs.size()});
}

}  // namespace pns::sweep
