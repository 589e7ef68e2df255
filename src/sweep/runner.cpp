#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "sweep/assets.hpp"
#include "util/contracts.hpp"

namespace pns::sweep {

SweepRunner::SweepRunner(SweepRunnerOptions options)
    : options_(std::move(options)) {}

unsigned SweepRunner::effective_threads(std::size_t n) const {
  unsigned t = options_.threads;
  if (t == 0) t = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<std::size_t>(t, std::max<std::size_t>(n, 1)));
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

std::vector<SweepOutcome> SweepRunner::run(
    const std::vector<ScenarioSpec>& specs,
    const std::function<void(std::size_t, const SweepOutcome&)>& on_outcome,
    std::vector<ScenarioAssets>* caches) const {
  std::vector<SweepOutcome> outcomes(specs.size());
  if (specs.empty()) return outcomes;

  // Work units: for a batch-capable integrator kind, maximal runs of
  // adjacent batch-compatible specs capped at the kind's width; a
  // singleton per spec otherwise. The partition is a pure function of
  // the spec list -- never of scheduling -- so outputs stay independent
  // of thread count, and batching itself never changes a row's bytes
  // (see sim/batch_engine.hpp).
  struct Unit {
    std::size_t begin, end;
  };
  std::vector<Unit> units;
  units.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size();) {
    std::size_t end = i + 1;
    const std::size_t width = batch_width(specs[i]);
    while (end < specs.size() && end - i < width &&
           batch_compatible(specs[i], specs[end]))
      ++end;
    units.push_back(Unit{i, end});
    i = end;
  }

  std::atomic<std::size_t> next{0};
  std::size_t done = 0;  // guarded by progress_mutex
  std::mutex progress_mutex;

  auto worker = [&](ScenarioAssets* kept) {
    // One asset cache per worker thread -- the caller's slot, or one on
    // this thread's stack: rows that share a weather trace reuse it
    // instead of re-synthesising (results are bit-identical, so the
    // thread-count independence guarantee is unaffected).
    ScenarioAssets local;
    ScenarioAssets& assets = kept ? *kept : local;
    for (;;) {
      const std::size_t u = next.fetch_add(1, std::memory_order_relaxed);
      if (u >= units.size()) return;
      const Unit unit = units[u];
      const std::size_t rows = unit.end - unit.begin;
      const auto t0 = std::chrono::steady_clock::now();
      if (batch_width(specs[unit.begin]) > 0) {
        // Lockstep path (also for a lone row: width=1 degenerates to the
        // scalar call sequence inside BatchEngine, bit-identically).
        std::vector<SweepOutcome> got =
            run_scenarios_batched(specs.data() + unit.begin, rows, assets);
        // Per-row wall attribution: the unit's wall split evenly. Lanes
        // advance interleaved, so no finer per-row figure exists; CSVs,
        // JSON and canonical journal comparisons all exclude wall_s.
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        for (std::size_t r = 0; r < rows; ++r) {
          got[r].wall_s = wall / static_cast<double>(rows);
          outcomes[unit.begin + r] = std::move(got[r]);
        }
        if (options_.progress || on_outcome) {
          std::lock_guard<std::mutex> lock(progress_mutex);
          for (std::size_t r = 0; r < rows; ++r) {
            if (on_outcome)
              on_outcome(unit.begin + r, outcomes[unit.begin + r]);
            if (options_.progress) options_.progress(++done, specs.size());
          }
        }
        continue;
      }
      const std::size_t i = unit.begin;
      SweepOutcome& out = outcomes[i];
      out.spec = specs[i];
      try {
        out.result = run_scenario(specs[i], assets);
        out.ok = true;
      } catch (const std::exception& e) {
        out.error = e.what();
      } catch (...) {
        out.error = "unknown exception";
      }
      out.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
      if (options_.progress || on_outcome) {
        // Count, journal and report under one lock so completion counts
        // reach the callbacks in order and appends never interleave.
        std::lock_guard<std::mutex> lock(progress_mutex);
        if (on_outcome) on_outcome(i, out);
        if (options_.progress) options_.progress(++done, specs.size());
      }
    }
  };

  const unsigned n_threads = effective_threads(specs.size());
  if (caches && caches->size() < n_threads) caches->resize(n_threads);
  auto slot = [&](unsigned t) { return caches ? &(*caches)[t] : nullptr; };
  if (n_threads <= 1) {
    worker(slot(0));
    return outcomes;
  }
  std::vector<std::thread> pool;
  pool.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(worker, slot(t));
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
  const JournalHeader header{sweep_name, specs.size()};

  // Load whatever a previous (possibly killed) invocation recorded.
  std::map<std::size_t, SummaryRow> done;
  const bool journalled = !journal_path.empty();
  const bool journal_exists =
      journalled && std::filesystem::exists(journal_path);
  if (journal_exists) {
    JournalContents contents = read_journal(journal_path, header);
    done = std::move(contents.rows);
    check_journal_rows(journal_path, done, specs);
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

  std::optional<JournalWriter> journal;
  if (journalled) {
    journal = journal_exists
                  ? JournalWriter::append_to(journal_path,
                                             options_.journal_durability)
                  : JournalWriter::create(journal_path, header,
                                          options_.journal_durability);
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
