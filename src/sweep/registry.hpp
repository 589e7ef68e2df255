// Open plugin registries behind the spec-string API.
//
// Every axis of the paper's parameter studies -- *how the SoC is
// controlled*, *what feeds the storage node*, *which engine integrates
// it* and *which board it runs on* -- is a Registry<Axis> of named
// entries instead of a closed enum. An entry carries the kind string, a
// one-line summary, the ParamInfo list of accepted keys (so diagnostics
// and `pns_sweep list` can never go stale) and the hook that resolves a
// validated ParamMap into the runnable artefact: a sim::ControlSelection,
// an ehsim::PvSource, SimConfig numerics or a soc::Platform.
//
// Built-ins are registered on first use by each axis's provider unit
// (register_controls.cpp, register_sources.cpp, register_integrators.cpp,
// register_platforms.cpp). User code can add kinds at startup with
// ControlRegistry::instance().add(...) -- see docs/architecture.md,
// "Adding a control, source, integrator, or platform kind".
#pragma once

#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ehsim/sources.hpp"
#include "sim/experiment.hpp"
#include "sweep/assets.hpp"
#include "sweep/scenario.hpp"
#include "util/params.hpp"

namespace pns::sweep {

/// One registered control kind.
struct ControlEntry {
  /// Registry key: the spec string's kind path ("pns", "gov:ondemand").
  std::string kind;
  std::string summary;            ///< one-liner for `pns_sweep list`
  std::vector<ParamInfo> params;  ///< accepted keys (validated, listed)
  /// Resolves validated params for a concrete scenario. Called once per
  /// run_scenario, on the worker thread executing it.
  std::function<sim::ControlSelection(const ScenarioSpec&, const ParamMap&)>
      make;
};

/// One registered source kind.
struct SourceEntry {
  std::string kind;
  std::string summary;
  std::vector<ParamInfo> params;
  /// Daylight semantics: v_target defaults to the array MPP (5.3 V) and
  /// the warm-start rules of sim::make_pv_engine apply. False for the
  /// shadowing stress scenarios, which start from the spec's explicit
  /// operating point with the band disabled.
  bool solar_defaults = true;
  /// Whether this kind reads ScenarioSpec::condition (the weather axis).
  /// SweepSpec::expand() collapses the conditions axis for kinds that do
  /// not, instead of multiplying out identical scenarios.
  bool uses_condition = false;
  /// The "condition" cell of reports/labels for a scenario of this kind
  /// (e.g. the weather name for "solar", the fixed string "shadowing").
  std::function<std::string(const ScenarioSpec&)> condition_label;
  /// Builds the harvester feeding the storage node for one scenario.
  /// `assets` is the run's immutable-input cache (sweep/assets.hpp),
  /// shared by its threads; factories whose inputs are expensive pure
  /// functions of the spec should build them through it, others may
  /// ignore it. Called from any of the run's threads.
  std::function<ehsim::PvSource(const ScenarioSpec&, const ParamMap&,
                                ScenarioAssets&)>
      make;
};

/// One registered integrator kind. Unlike controls/sources, an
/// integrator resolves to *numerics*: its apply hook rewrites the
/// SimConfig a scenario runs under (step-control law, event
/// localisation, tolerances, coasting).
struct IntegratorEntry {
  std::string kind;
  std::string summary;
  std::vector<ParamInfo> params;
  /// Applies the kind's tuning (validated params) onto the resolved
  /// SimConfig. Called from make_sim_config.
  std::function<void(const ScenarioSpec&, const ParamMap&, sim::SimConfig&)>
      apply;
  /// Parameter keys that select *execution strategy*, not numerics: two
  /// specs of this kind that differ only in these keys integrate
  /// bit-identical trajectories. The journal identity
  /// (sweepd::JobSpec::identity) strips them, so journals stay
  /// interchangeable across them, and the apply hook must ignore them.
  std::vector<std::string> execution_only;
  /// Lockstep-batchable: the runner may group compatible adjacent rows
  /// of this kind into one sim::BatchEngine per work unit, up to the
  /// kind's "width" parameter, without changing any output byte.
  bool batch_capable = false;
  /// Batched runs of this kind pack their lockstep rounds
  /// (BatchEngineOptions::simd): RK stages evaluated across lanes and PV
  /// solves batched, still without changing any output byte. Implies
  /// batch_capable semantics for everything else.
  bool batch_simd = false;
};

/// One registered platform kind. Resolves to a complete soc::Platform:
/// "mono" returns the paper's single-domain board untouched (the
/// byte-identical default) and topology kinds compile a
/// soc::PlatformTopology into a joint-ladder platform.
struct PlatformEntry {
  std::string kind;
  std::string summary;
  std::vector<ParamInfo> params;
  /// Builds the platform from validated params. Called once per
  /// run_scenario before control/source resolution.
  std::function<soc::Platform(const ParamMap&)> make;
};

/// Registry of one axis's kinds. instance() is created thread-safely on
/// first use with the axis's built-ins already registered; add() further
/// kinds before sweeps start (registration is not synchronised against
/// concurrent lookups).
template <class Axis>
class Registry {
 public:
  using Entry = typename Axis::Entry;

  static Registry& instance();

  /// Registers a kind; throws std::invalid_argument on a duplicate.
  void add(Entry entry);
  /// Registers `retired` as another spelling of the registered `kind`:
  /// find() resolves it to that entry, while entries() and the
  /// unknown-kind diagnostic list only `kind`. Specs keep the spelling
  /// they were written with, so their identities do not change.
  void alias(std::string retired, std::string kind);
  /// nullptr when unknown.
  const Entry* find(const std::string& kind) const;
  /// Throws ParamError naming the valid kinds when unknown.
  const Entry& require(const std::string& kind) const;
  /// require(spec.kind), with spec.params' keys validated against the
  /// entry (ParamError naming the accepted keys).
  const Entry& entry_for(const KindSpec<Axis>& spec) const;
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  Registry() = default;
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> aliases_;
};

using ControlRegistry = Registry<ControlAxis>;
using SourceRegistry = Registry<SourceAxis>;
using IntegratorRegistry = Registry<IntegratorAxis>;
using PlatformRegistry = Registry<PlatformAxis>;

/// Every registry axis, in `pns_sweep list` order.
using Axes = std::tuple<ControlAxis, SourceAxis, IntegratorAxis, PlatformAxis>;

extern template class Registry<ControlAxis>;
extern template class Registry<SourceAxis>;
extern template class Registry<IntegratorAxis>;
extern template class Registry<PlatformAxis>;

/// Resolves a platform spec through the registry (same diagnostics
/// contract as resolve_control): unknown kinds and parameter keys throw
/// ParamError naming the valid choices.
soc::Platform resolve_platform(const PlatformSpec& platform);

/// Resolves a control spec for `spec` through the registry: unknown
/// kinds and parameter keys throw ParamError naming the valid choices;
/// parameter values are decoded by the entry's factory.
sim::ControlSelection resolve_control(const ControlSpec& control,
                                      const ScenarioSpec& spec);

/// Builds the harvester for `spec.source` through the registry (same
/// diagnostics contract as resolve_control), using `assets` for
/// shareable inputs.
ehsim::PvSource resolve_source(const ScenarioSpec& spec,
                               ScenarioAssets& assets);

/// Applies `spec.integrator` onto `cfg` through the integrator registry
/// (same diagnostics contract as resolve_control). Called by
/// make_sim_config.
void resolve_integrator(const ScenarioSpec& spec, sim::SimConfig& cfg);

/// The report/label "condition" string of a scenario: its source kind's
/// condition_label, or the bare kind string when the kind is unknown
/// (expansion must not throw for a spec whose failure belongs to
/// run_scenario).
std::string source_condition_label(const ScenarioSpec& spec);

/// Whether `kind` reads the weather-condition axis (see
/// SourceEntry::uses_condition). True for unknown kinds, so expansion
/// stays permissive and the hard error lands in run_scenario.
bool source_uses_condition(const std::string& kind);

}  // namespace pns::sweep
