#include "sweep/assets.hpp"

#include <exception>
#include <optional>

namespace pns::sweep {

std::shared_ptr<const PiecewiseLinear> ScenarioAssets::trace(
    const std::string& key,
    const std::function<PiecewiseLinear()>& build) {
  std::optional<std::promise<Trace>> promise;  // set when this call builds
  std::shared_ptr<const std::shared_future<Trace>> entry;
  std::shared_future<Trace> ready;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = traces_.find(key);
    if (it != traces_.end()) {
      ++hits_;
      entry = it->second;
    } else {
      ++misses_;
      if (traces_.size() >= kMaxTraces) traces_.clear();
      promise.emplace();
      entry = std::make_shared<const std::shared_future<Trace>>(
          promise->get_future().share());
      traces_.emplace(key, entry);
    }
    ready = *entry;
  }
  // Another call builds (or built) this key: wait outside the lock.
  if (!promise) return ready.get();

  try {
    promise->set_value(std::make_shared<const PiecewiseLinear>(build()));
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = traces_.find(key);
      if (it != traces_.end() && it->second == entry) traces_.erase(it);
    }
    promise->set_exception(std::current_exception());
    throw;
  }
  return ready.get();
}

std::size_t ScenarioAssets::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t ScenarioAssets::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace pns::sweep
