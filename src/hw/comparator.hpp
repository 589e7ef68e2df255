// Analogue comparator model (LT6703 family, 400 mV internal reference).
//
// Stateful: real comparators have hysteresis (built-in or via positive
// feedback) which we model explicitly because it prevents interrupt storms
// when the divided node voltage sits exactly on the reference. The input
// offset is modelled so the monitor's threshold accuracy analysis (tests)
// can bound end-to-end error.
#pragma once

namespace pns::hw {

/// Electrical characteristics of the comparator.
struct ComparatorParams {
  double v_ref = 0.400;       ///< internal reference (V)
  double offset_v = 0.0005;   ///< input offset voltage (V)
  double hysteresis_v = 0.0065;  ///< total input hysteresis band (V)
};

/// Comparator with hysteresis. Output is high when (input - offset)
/// exceeds the reference; the effective reference shifts by half the
/// hysteresis band depending on the current output state.
class Comparator {
 public:
  explicit Comparator(ComparatorParams params = {});

  const ComparatorParams& params() const { return params_; }

  bool output() const { return output_high_; }

  /// Presents `v_in` at the input; returns the (possibly new) output.
  bool update(double v_in);

  /// Input level that would flip the output high from the low state.
  double rising_trip() const;

  /// Input level that would flip the output low from the high state.
  double falling_trip() const;

  /// Forces a known output state (e.g. after power-up).
  void reset(bool output_high);

 private:
  ComparatorParams params_;
  bool output_high_ = false;
};

}  // namespace pns::hw
