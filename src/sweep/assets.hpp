// Per-run reuse of immutable scenario assets.
//
// Expanding a sweep multiplies a handful of *inputs* (weather traces,
// shadow profiles, flicker waves) across many control/capacitance/seed
// rows, but the plain run_scenario path re-synthesises those inputs for
// every row: an 18-row table2 sweep builds the same three 36k-knot
// weather traces eighteen times. A ScenarioAssets instance is a memo of
// such assets, keyed by the exact parameters that determine them.
// Because every cached asset is an immutable pure function of its key,
// reuse is bit-identical to rebuilding -- the sweep determinism
// guarantees (thread-/shard-count independence) hold with or without
// the cache.
//
// One instance per run (SweepRunner::run) or per daemon worker session,
// shared by all of its threads: each key is built once, by the first
// thread that asks, and every other thread asking for it waits for that
// build and gets the same instance. A 4-thread run therefore holds each
// trace once, not four times. Never process-wide: a process-wide trace
// cache raised peak RSS by 20 % (docs/performance.md). The process-wide PV
// interpolation table (sim::paper_pv_table) stays shared as before -- it
// is built once per process, not per scenario.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/interp.hpp"

namespace pns::sweep {

/// Thread-safe memo of immutable, shareable scenario inputs.
class ScenarioAssets {
 public:
  /// Returns the trace cached under `key`, building it with `build` on
  /// the first request. The key must uniquely determine the trace's
  /// contents (include every synthesis parameter), and `build` must be a
  /// pure function of it: it may run on any thread that calls trace().
  ///
  /// Safe to call from many threads. A key is built once, outside the
  /// cache's lock, so a build never delays a lookup of another key;
  /// concurrent callers of the same key wait for that build. A build
  /// that throws is not cached: its waiters get the exception, and the
  /// next call builds again.
  std::shared_ptr<const PiecewiseLinear> trace(
      const std::string& key,
      const std::function<PiecewiseLinear()>& build);

  /// Lookups served from the cache, including those that waited for
  /// another thread's build.
  std::size_t hits() const;
  /// Builds started (one per key per epoch, plus retries after a throw).
  std::size_t misses() const;

 private:
  using Trace = std::shared_ptr<const PiecewiseLinear>;

  // Epoch-evicted: wiped wholesale when it reaches this many traces, so a
  // 1000-seed sweep cannot hold 1000 36k-knot traces. A build in flight
  // during a wipe still completes for the callers already waiting on it.
  static constexpr std::size_t kMaxTraces = 32;

  mutable std::mutex mutex_;
  // Each entry is its key's build: ready once the trace (or the build's
  // exception) is in. Held by shared_ptr so a failed build removes only
  // its own entry, never a newer build of the same key.
  std::map<std::string, std::shared_ptr<const std::shared_future<Trace>>>
      traces_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace pns::sweep
