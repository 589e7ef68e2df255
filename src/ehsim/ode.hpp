// ODE system interface and event specification.
//
// The energy-harvesting circuit (Figs. 2 and 8 of the paper) is a first
// order system in one state variable, the storage-node voltage:
// C * dVC/dt = I_harvest - I_load - VC / R_leak, with a discontinuous
// load current (OPP changes) and threshold events (comparator crossings,
// brownout, recovery). The paper validates its controller with Matlab's
// ODE23; we provide the same integrator family (Bogacki-Shampine RK2(3))
// plus threshold-event localisation, defined against this scalar system
// interface.
#pragma once

#include <cstddef>

namespace pns::ehsim {

/// Right-hand side of a scalar ODE y' = f(t, y).
///
/// Implementations must be side-effect free: the integrator evaluates the
/// derivative at trial points that may be discarded.
class OdeSystem {
 public:
  virtual ~OdeSystem() = default;

  /// f(t, y).
  virtual double derivative(double t, double y) const = 0;
};

/// Crossing direction an event fires on.
enum class EventDirection {
  kRising,   ///< g goes from negative to non-negative
  kFalling,  ///< g goes from positive to non-positive
};

/// The discrete crossing test: did g move across zero in `direction`
/// between two samples? Single definition shared by the integrator's
/// event gate (rk23.cpp) and the dense-output root search
/// (dense_output.cpp) -- the two MUST agree or the root search could
/// miss a crossing the gate fired on.
inline bool event_direction_matches(EventDirection direction, double g0,
                                    double g1) {
  switch (direction) {
    case EventDirection::kRising:
      return g0 < 0.0 && g1 >= 0.0;
    case EventDirection::kFalling:
      return g0 > 0.0 && g1 <= 0.0;
  }
  return false;
}

/// A threshold event: the state crosses `level` in `direction`, i.e. a
/// root of g(y) = y - level.
struct EventSpec {
  double level = 0.0;
  EventDirection direction = EventDirection::kRising;
  /// Opaque tag returned to the caller when this event fires.
  int tag = 0;

  static EventSpec threshold(double level, EventDirection direction,
                             int tag) {
    return {level, direction, tag};
  }

  /// Evaluates the event function g(y).
  double eval(double y) const { return y - level; }
};

/// Outcome of advancing an integrator to a time limit.
struct IntegrationResult {
  double t = 0.0;            ///< time reached
  bool event_fired = false;  ///< true if stopped by an event root
  int event_tag = 0;         ///< tag of the event that fired
  std::size_t steps_taken = 0;
  std::size_t rejected_steps = 0;
};

}  // namespace pns::ehsim
