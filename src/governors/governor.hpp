// Frequency-governor interface for the baseline comparison (Table II).
//
// Linux cpufreq governors sample CPU utilisation periodically and request
// a frequency; they never hot-plug cores (all eight stay online). The
// paper compares its interrupt-driven power-neutral controller against
// these governors while harvesting: Performance/Ondemand/Interactive
// cannot sustain operation at all, Conservative dies within seconds and
// Powersave survives but wastes available energy.
#pragma once

#include <memory>
#include <string>

#include "soc/platform.hpp"

namespace pns::gov {

/// Tolerance (s) of every due-time comparison on the sampling-tick grid,
/// shared by the engine's segment planner (sim/engine.cpp) and the
/// per-domain governor (governors/multi_domain.cpp) so both agree on
/// when a tick is due.
inline constexpr double kTickEps = 1e-9;

/// Inputs available to a governor at each sampling tick.
struct GovernorContext {
  double t = 0.0;             ///< current time (s)
  double utilization = 1.0;   ///< measured CPU utilisation in [0, 1]
  soc::OperatingPoint current;  ///< operating point now in force
};

/// Periodic-sampling frequency governor.
class Governor {
 public:
  explicit Governor(const soc::Platform& platform) : platform_(&platform) {}
  virtual ~Governor() = default;

  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  /// cpufreq-style identifier ("ondemand", "powersave", ...).
  virtual const char* name() const = 0;

  /// Desired operating point for the next period. Implementations only
  /// move `freq_index`; the core configuration passes through unchanged.
  virtual soc::OperatingPoint decide(const GovernorContext& ctx) = 0;

  /// Tick-elision promise: the latest time T such that every sampling
  /// tick at a time strictly before T is provably a no-op -- given that
  /// the measured utilisation stays equal to `ctx.utilization` and the
  /// operating point stays `ctx.current`, decide() would keep
  /// `ctx.current.freq_index` (the only field governors move) and leave
  /// all internal state unchanged at that tick.
  /// Returning `ctx.t` promises nothing (the next tick must run);
  /// +infinity marks a fixed point that only a premise change can leave.
  /// The promise is void as soon as either premise breaks (the caller
  /// re-asks per segment) or the governor is mutated externally.
  /// Default: no promise, which is always sound.
  virtual double hold_until(const GovernorContext& ctx) const {
    return ctx.t;
  }

  /// Sampling period (s); cpufreq defaults are in the 10-100 ms range.
  virtual double sampling_period() const { return 0.1; }

  /// Clears internal state (step counters, timers).
  virtual void reset() {}

 protected:
  const soc::Platform& platform() const { return *platform_; }

 private:
  const soc::Platform* platform_;
};

}  // namespace pns::gov
