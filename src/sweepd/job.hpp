// Serializable sweep-job description: one `pns_sweep` invocation.
//
// A JobSpec is exactly the knob set of a `pns_sweep <preset>` invocation
// -- preset name, window length, PV mode, control/source/integrator/
// platform spec strings -- no more, no less. A local or sharded
// `pns_sweep` run, the daemon and every worker all expand it through
// expand() and journal it under identity(), so a job means the *same*
// vector of ScenarioSpecs on every machine and every checkpoint journal
// header says exactly what its rows computed: a worker built from
// different code fails the row-label check instead of silently
// corrupting the aggregate.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/scenario.hpp"
#include "util/json.hpp"

namespace pns::sweepd {

/// Error raised for an invalid job: unknown preset, a window that is not
/// a finite number of minutes > 0, malformed spec strings, or a
/// malformed JSON encoding.
class JobError : public std::runtime_error {
 public:
  explicit JobError(const std::string& what) : std::runtime_error(what) {}
};

/// One submitted sweep, as data.
struct JobSpec {
  std::string preset;  ///< sweep preset name ("table2", "quick", ...)
  double minutes = 60.0;
  ehsim::PvSource::Mode pv_mode = ehsim::PvSource::Mode::kExact;
  /// Axis overrides; empty keeps the preset's own axis (the same
  /// wholesale-replacement semantics as the CLI's --control/--source).
  std::vector<sweep::ControlSpec> controls;
  std::vector<sweep::SourceSpec> sources;
  sweep::IntegratorSpec integrator;
  /// Whole-sweep platform selection ("mono" default; a topology kind
  /// changes every row's bytes, so it is part of the identity).
  sweep::PlatformSpec platform;

  /// The canonical sweep identity, JournalHeader::sweep of every journal
  /// of this job: the preset plus every knob that changes what the rows
  /// compute -- window, PV mode, control/source overrides, and the
  /// integrator and platform unless they are the defaults (which compute
  /// the same bytes spelled or not). Execution-only integrator keys such
  /// as rk23simd's "width" are stripped. A resume under other knobs thus
  /// fails the header match instead of mixing rows.
  std::string identity() const;

  /// Expands to the concrete scenario vector via the preset registry +
  /// axis overrides -- identical for local runs, the daemon and workers.
  /// Throws JobError on an unknown preset or a `minutes` that is not
  /// finite and > 0 (spec strings were validated at parse time).
  std::vector<sweep::ScenarioSpec> expand() const;

  /// Emits the JSON object form carried in submit/lease messages.
  void write_json(JsonWriter& w) const;
  /// Parses the JSON object form, validating preset and spec strings
  /// (throws JobError naming the valid choices).
  static JobSpec from_json(const JsonValue& v);
};

}  // namespace pns::sweepd
