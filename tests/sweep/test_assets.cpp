// ScenarioAssets shared by many threads: one build per key, one instance
// for every caller, no cached failures, and no build holding up another
// key. Synchronised with latches only, so the suite is exact under TSan.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sweep/assets.hpp"

namespace pns::sweep {
namespace {

PiecewiseLinear ramp(double slope) {
  return PiecewiseLinear({0.0, 1.0}, {0.0, slope});
}

/// Spins (yielding) until `done()` holds: waits for a lookup the cache
/// counts before it blocks, which no latch can observe. False after 30 s,
/// so a regression fails the test instead of hanging it.
template <class Pred>
bool yield_until(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ScenarioAssets, EachKeyIsBuiltOnceAndEveryCallerGetsTheSameTrace) {
  constexpr std::size_t kThreads = 8;
  ScenarioAssets assets;
  std::atomic<int> builds{0};
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const PiecewiseLinear>> got(kThreads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = assets.trace("k", [&] {
        ++builds;
        return ramp(2.0);
      });
    });
  for (auto& th : pool) th.join();

  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(assets.misses(), 1u);
  EXPECT_EQ(assets.hits(), kThreads - 1);
  ASSERT_NE(got[0], nullptr);
  for (const auto& p : got) EXPECT_EQ(p.get(), got[0].get());
  EXPECT_EQ((*got[0])(0.5), 1.0);
}

TEST(ScenarioAssets, WaitersShareTheBuildInFlight) {
  // Key "k" is held mid-build until three more callers have looked it
  // up; they all wait for that one build.
  ScenarioAssets assets;
  std::latch building(1), release(1);
  std::atomic<int> builds{0};
  std::shared_ptr<const PiecewiseLinear> first;
  std::thread builder([&] {
    first = assets.trace("k", [&] {
      ++builds;
      building.count_down();
      release.wait();
      return ramp(3.0);
    });
  });
  building.wait();
  std::vector<std::shared_ptr<const PiecewiseLinear>> got(3);
  std::vector<std::thread> waiters;
  for (std::size_t t = 0; t < got.size(); ++t)
    waiters.emplace_back([&, t] {
      got[t] = assets.trace("k", [&] {
        ++builds;
        return ramp(-1.0);
      });
    });
  const bool all_waiting =
      yield_until([&] { return assets.hits() == got.size(); });
  release.count_down();
  builder.join();
  for (auto& th : waiters) th.join();

  EXPECT_TRUE(all_waiting) << "a lookup of k blocked before it was counted";
  EXPECT_EQ(builds.load(), 1);
  for (const auto& p : got) EXPECT_EQ(p.get(), first.get());
}

TEST(ScenarioAssets, AThrowingBuildIsNotCachedAndIsRetried) {
  ScenarioAssets assets;
  std::latch building(1), release(1);
  std::thread builder([&] {
    EXPECT_THROW(assets.trace("k",
                              [&]() -> PiecewiseLinear {
                                building.count_down();
                                release.wait();
                                throw std::runtime_error("no such file");
                              }),
                 std::runtime_error);
  });
  building.wait();
  // A caller that arrives mid-build shares the failure; it does not
  // build a second time.
  std::thread waiter([&] {
    EXPECT_THROW(assets.trace("k", [] { return ramp(1.0); }),
                 std::runtime_error);
  });
  const bool waiting = yield_until([&] { return assets.hits() == 1; });
  release.count_down();
  builder.join();
  waiter.join();
  EXPECT_TRUE(waiting) << "the second lookup blocked before it was counted";
  EXPECT_EQ(assets.misses(), 1u);

  // The next call builds again, and its trace is what later calls get.
  const auto retried = assets.trace("k", [] { return ramp(4.0); });
  EXPECT_EQ(assets.misses(), 2u);
  EXPECT_EQ((*retried)(1.0), 4.0);
  EXPECT_EQ(assets.trace("k", [] { return ramp(5.0); }).get(),
            retried.get());
  EXPECT_EQ(assets.misses(), 2u);
}

TEST(ScenarioAssets, ABlockedBuildDoesNotDelayAnotherKey) {
  ScenarioAssets assets;
  std::latch building(1), release(1);
  std::thread slow([&] {
    assets.trace("a", [&] {
      building.count_down();
      release.wait();
      return ramp(1.0);
    });
  });
  building.wait();
  // Key "a" is mid-build. Key "b" must be built and returned meanwhile;
  // the timeout only turns a regression into a failure instead of a hang.
  auto other = std::async(std::launch::async, [&] {
    return assets.trace("b", [] { return ramp(2.0); });
  });
  const bool finished =
      other.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release.count_down();
  slow.join();
  ASSERT_TRUE(finished) << "key b waited for key a's build";
  EXPECT_EQ((*other.get())(1.0), 2.0);
  EXPECT_EQ(assets.misses(), 2u);
}

}  // namespace
}  // namespace pns::sweep
