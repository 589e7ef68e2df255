#include "util/fault.hpp"

#include <algorithm>

namespace pns::fault {

namespace {

/// Validates a probability knob (ParamError keeps the CLI diagnostics
/// convention: name the key, show the offending value).
double checked_probability(const ParamMap& params, const char* key) {
  const double p = params.get_double(key, 0.0);
  if (p < 0.0 || p > 1.0)
    throw ParamError(std::string("fault spec: '") + key + "' must be a " +
                     "probability in [0,1], got " + *params.find(key));
  return p;
}

}  // namespace

const std::vector<ParamInfo>& FaultSpec::params() {
  static const std::vector<ParamInfo> infos = {
      {"seed", "uint", "1", "master seed; same seed = same injection "
                            "sequence"},
      {"conn_drop", "double", "0",
       "P(sever the connection at a socket call)"},
      {"short_read", "double", "0", "P(truncate one recv's byte budget)"},
      {"short_write", "double", "0", "P(truncate one send's byte budget)"},
      {"eintr", "double", "0", "P(start a 1-3 call EINTR storm)"},
      {"fsync_fail", "uint", "0", "fail exactly the Nth fsync (1-based)"},
      {"fsync_fail_from", "uint", "0",
       "fail every fsync from the Nth on (dead disk)"},
      {"torn_append", "double", "0",
       "P(tear a journal line mid-append)"},
  };
  return infos;
}

FaultSpec FaultSpec::parse(const std::string& text) {
  std::string body = text;
  if (body == "fault")
    body.clear();
  else if (body.rfind("fault:", 0) == 0)
    body = body.substr(6);
  const ParamMap map = ParamMap::parse(body);
  map.validate_keys(params(), "fault spec");
  map.validate_types(params());

  FaultSpec spec;
  spec.seed = map.get_uint("seed", spec.seed);
  spec.conn_drop = checked_probability(map, "conn_drop");
  spec.short_read = checked_probability(map, "short_read");
  spec.short_write = checked_probability(map, "short_write");
  spec.eintr = checked_probability(map, "eintr");
  spec.fsync_fail = map.get_uint("fsync_fail", 0);
  spec.fsync_fail_from = map.get_uint("fsync_fail_from", 0);
  spec.torn_append = checked_probability(map, "torn_append");
  return spec;
}

std::string FaultSpec::spec_string() const {
  ParamMap map;
  map.set_uint("seed", seed);
  if (conn_drop > 0.0) map.set_double("conn_drop", conn_drop);
  if (short_read > 0.0) map.set_double("short_read", short_read);
  if (short_write > 0.0) map.set_double("short_write", short_write);
  if (eintr > 0.0) map.set_double("eintr", eintr);
  if (fsync_fail != 0) map.set_uint("fsync_fail", fsync_fail);
  if (fsync_fail_from != 0)
    map.set_uint("fsync_fail_from", fsync_fail_from);
  if (torn_append > 0.0) map.set_double("torn_append", torn_append);
  return "fault:" + map.serialize();
}

FaultInjector::FaultInjector(FaultSpec spec) : spec_(spec) {
  // One independent stream per site, derived from the master seed with
  // distinct golden-ratio offsets (Rng's SplitMix64 expansion decorrelates
  // the nearby seeds). A site's decisions then depend only on the seed
  // and how many times *that site* was consulted -- never on scheduling.
  for (std::size_t i = 0; i < kFaultSiteCount; ++i)
    streams_[i] = Rng(spec_.seed + (i + 1) * 0x9E3779B97F4A7C15ull);
}

bool FaultInjector::draw(FaultSite site, double p) {
  const auto i = static_cast<std::size_t>(site);
  ++stats_[i].ops;
  if (p <= 0.0) return false;
  const bool hit = streams_[i].bernoulli(p);
  if (hit) ++stats_[i].hits;
  return hit;
}

bool FaultInjector::drop_connection() {
  std::lock_guard<std::mutex> lock(mu_);
  return draw(FaultSite::kConnDrop, spec_.conn_drop);
}

std::size_t FaultInjector::clamp_read(std::size_t want) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!draw(FaultSite::kShortRead, spec_.short_read) || want <= 1)
    return want;
  const auto i = static_cast<std::size_t>(FaultSite::kShortRead);
  return 1 + static_cast<std::size_t>(
                 streams_[i].uniform_index(want - 1));
}

std::size_t FaultInjector::clamp_write(std::size_t want) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!draw(FaultSite::kShortWrite, spec_.short_write) || want <= 1)
    return want;
  const auto i = static_cast<std::size_t>(FaultSite::kShortWrite);
  return 1 + static_cast<std::size_t>(
                 streams_[i].uniform_index(want - 1));
}

bool FaultInjector::inject_eintr() {
  std::lock_guard<std::mutex> lock(mu_);
  const auto i = static_cast<std::size_t>(FaultSite::kEintr);
  ++stats_[i].ops;
  if (eintr_storm_left_ > 0) {
    --eintr_storm_left_;
    // When the storm ends, let the next call through un-faulted so even
    // eintr=1 cannot starve the retry loop of progress.
    if (eintr_storm_left_ == 0) eintr_cooldown_ = true;
    ++stats_[i].hits;
    return true;
  }
  if (eintr_cooldown_) {
    eintr_cooldown_ = false;
    return false;
  }
  if (spec_.eintr <= 0.0 || !streams_[i].bernoulli(spec_.eintr))
    return false;
  const std::uint64_t storm = 1 + streams_[i].uniform_index(3);  // 1-3
  eintr_storm_left_ = storm - 1;
  eintr_cooldown_ = eintr_storm_left_ == 0;
  ++stats_[i].hits;
  return true;
}

bool FaultInjector::fail_fsync() {
  std::lock_guard<std::mutex> lock(mu_);
  const auto i = static_cast<std::size_t>(FaultSite::kFsync);
  ++stats_[i].ops;
  ++fsync_count_;
  const bool hit =
      (spec_.fsync_fail != 0 && fsync_count_ == spec_.fsync_fail) ||
      (spec_.fsync_fail_from != 0 &&
       fsync_count_ >= spec_.fsync_fail_from);
  if (hit) ++stats_[i].hits;
  return hit;
}

std::size_t FaultInjector::tear_append(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!draw(FaultSite::kTornAppend, spec_.torn_append) || n == 0)
    return n;
  const auto i = static_cast<std::size_t>(FaultSite::kTornAppend);
  return static_cast<std::size_t>(streams_[i].uniform_index(n));  // 0..n-1
}

SiteStats FaultInjector::stats(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_[static_cast<std::size_t>(site)];
}

std::shared_ptr<FaultInjector> make_injector(
    const std::string& spec_text) {
  if (spec_text.empty()) return nullptr;
  return std::make_shared<FaultInjector>(FaultSpec::parse(spec_text));
}

}  // namespace pns::fault
