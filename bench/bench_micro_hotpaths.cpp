// Micro benchmarks (google-benchmark) of the library's hot paths:
// the implicit PV solve, adaptive integrator stepping, power-model
// evaluation, controller ISR, monitor programming, and an end-to-end
// simulated second. These bound the cost of the co-simulation loop and
// document the sim/realtime ratio. The row-frame and journal benches
// bound what the sweep daemon pays per row on top of the simulation.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "ehsim/circuit.hpp"
#include "ehsim/rk23.hpp"
#include "ehsim/solar_cell.hpp"
#include "ehsim/solar_cell_simd.hpp"
#include "ehsim/sources.hpp"
#include "hw/monitor.hpp"
#include "sim/experiment.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/assets.hpp"
#include "sweep/journal.hpp"
#include "sweep/scenario.hpp"
#include "sweepd/protocol.hpp"

namespace {

using namespace pns;

const soc::Platform& xu4() {
  static soc::Platform p = soc::Platform::odroid_xu4();
  return p;
}

void BM_SolarCellNewtonSolve(benchmark::State& state) {
  const auto cell = sim::paper_pv_array();
  double v = 4.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.current(v, 850.0));
    v += 0.01;
    if (v > 6.5) v = 4.1;
  }
}
BENCHMARK(BM_SolarCellNewtonSolve);

void BM_SolarCellNewtonSolveWarmSeed(benchmark::State& state) {
  // The tabulated mode's off-table fallback: Newton seeded with the last
  // converged current of a nearby operating point.
  const auto cell = sim::paper_pv_array();
  double v = 4.1;
  double seed = cell.current(v, 850.0);
  for (auto _ : state) {
    const double il = cell.photo_current(850.0);
    seed = cell.current_from_photo_seeded(v, il, seed);
    benchmark::DoNotOptimize(seed);
    v += 0.01;
    if (v > 6.5) v = 4.1;
  }
}
BENCHMARK(BM_SolarCellNewtonSolveWarmSeed);

void BM_NewtonSolveSimd(benchmark::State& state) {
  // Eight packed Newton lanes per iteration, through the same entry point
  // the batched stepper uses (two width-4 chunks on x86-64). Per-solve
  // cost = cpu_time / 8; compare against BM_SolarCellNewtonSolve, which
  // times one scalar solve. The spread of operating points keeps the
  // lockstep loop running as long as the slowest lane, as it does in a
  // real batch.
  const auto cell = sim::paper_pv_array();
  std::vector<ehsim::NewtonLane> lanes;
  for (double v : {4.1, 4.6, 5.0, 5.3, 5.6, 5.9, 6.2, 6.5})
    lanes.push_back({&cell, v, cell.photo_current(850.0),
                     cell.photo_current(850.0)});
  double out[8];
  std::uint32_t iters[8];
  double dv = 0.0;
  for (auto _ : state) {
    for (auto& ln : lanes) ln.v += dv;
    benchmark::DoNotOptimize(
        ehsim::newton_current_batch(lanes, out, iters));
    benchmark::DoNotOptimize(out[0]);
    dv = (dv == 0.0) ? 0.01 : -dv;  // wobble, stay in range
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_NewtonSolveSimd);

void BM_PvSourceExactRepeatedPoint(benchmark::State& state) {
  // The memo path: the co-simulation loop re-evaluates the source at the
  // same (v, t) at every FSAL restart and segment boundary.
  const ehsim::PvSource source(sim::paper_pv_array(),
                               [](double) { return 850.0; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.current(5.1, 0.0));
  }
}
BENCHMARK(BM_PvSourceExactRepeatedPoint);

void BM_PvSourceTabulated(benchmark::State& state) {
  const ehsim::PvSource source(sim::paper_pv_array(),
                               [](double) { return 850.0; },
                               ehsim::PvSource::Mode::kTabulated);
  double v = 4.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.current(v, 0.0));
    v += 0.01;
    if (v > 6.5) v = 4.1;
  }
}
BENCHMARK(BM_PvSourceTabulated);

void BM_SolarCellMppSearch(benchmark::State& state) {
  const auto cell = sim::paper_pv_array();
  double g = 200.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.mpp(g).power);
    g += 37.0;
    if (g > 1100.0) g = 200.0;
  }
}
BENCHMARK(BM_SolarCellMppSearch);

void BM_PowerModelBoardPower(benchmark::State& state) {
  const auto& p = xu4();
  std::size_t i = 0;
  for (auto _ : state) {
    const soc::OperatingPoint opp{i % p.opps.size(),
                                  {1 + static_cast<int>(i % 4),
                                   static_cast<int>(i % 5)}};
    benchmark::DoNotOptimize(p.power.board_power(opp, p.opps, 1.0));
    ++i;
  }
}
BENCHMARK(BM_PowerModelBoardPower);

void BM_Rk23SecondOfCircuit(benchmark::State& state) {
  const auto cell = sim::paper_pv_array();
  const ehsim::PvSource source(cell, [](double) { return 900.0; });
  const ehsim::ConstantPowerLoad load(3.5);
  const ehsim::EhCircuit circuit(
      source, load,
      ehsim::Capacitor{47e-3, 0.0, 50e3});
  ehsim::Rk23Options opt;
  opt.max_step = 0.01;
  for (auto _ : state) {
    ehsim::Rk23Integrator ig(circuit, opt);
    const double v0 = 5.2;
    ig.reset(0.0, std::span<const double>(&v0, 1));
    benchmark::DoNotOptimize(ig.advance(1.0).steps_taken);
  }
}
BENCHMARK(BM_Rk23SecondOfCircuit);

void BM_Rk23PiSecondOfCircuit(benchmark::State& state) {
  // Same integration as BM_Rk23SecondOfCircuit under the PI step
  // controller with the rk23pi kind's 50 ms ceiling: the controller
  // holds the step at what the tolerance admits instead of cycling
  // through the clamp.
  const auto cell = sim::paper_pv_array();
  const ehsim::PvSource source(cell, [](double) { return 900.0; });
  const ehsim::ConstantPowerLoad load(3.5);
  const ehsim::EhCircuit circuit(source, load,
                                 ehsim::Capacitor{47e-3, 0.0, 50e3});
  ehsim::Rk23Options opt;
  opt.max_step = 0.25;
  opt.step_control = ehsim::StepControl::kPi;
  opt.event_localization = ehsim::EventLocalization::kDenseRoot;
  for (auto _ : state) {
    ehsim::Rk23Integrator ig(circuit, opt);
    const double v0 = 5.2;
    ig.reset(0.0, std::span<const double>(&v0, 1));
    benchmark::DoNotOptimize(ig.advance(1.0).steps_taken);
  }
}
BENCHMARK(BM_Rk23PiSecondOfCircuit);

// Event-path cost of one integrated second with a (never-firing) watch
// level, in both event representations. The threshold form evaluates as a
// subtract; the callback form pays the type-erased call.
void bench_rk23_event_path(benchmark::State& state,
                           const ehsim::EventSpec& ev) {
  const auto cell = sim::paper_pv_array();
  const ehsim::PvSource source(cell, [](double) { return 900.0; });
  const ehsim::ConstantPowerLoad load(3.5);
  const ehsim::EhCircuit circuit(source, load,
                                 ehsim::Capacitor{47e-3, 0.0, 50e3});
  ehsim::Rk23Options opt;
  opt.max_step = 0.01;
  ehsim::Rk23Integrator ig(circuit, opt);
  for (auto _ : state) {
    const double v0 = 5.2;
    ig.reset(0.0, std::span<const double>(&v0, 1));
    benchmark::DoNotOptimize(
        ig.advance(1.0, std::span<const ehsim::EventSpec>(&ev, 1))
            .steps_taken);
  }
}

void BM_Rk23EventPathThreshold(benchmark::State& state) {
  bench_rk23_event_path(state,
                        ehsim::EventSpec::threshold(
                            1.0, ehsim::EventDirection::kFalling, 1));
}
BENCHMARK(BM_Rk23EventPathThreshold);

void BM_Rk23EventPathCallback(benchmark::State& state) {
  bench_rk23_event_path(
      state,
      ehsim::EventSpec{[](double, std::span<const double> y) {
                         return y[0] - 1.0;
                       },
                       ehsim::EventDirection::kFalling, 1});
}
BENCHMARK(BM_Rk23EventPathCallback);

void BM_DenseOutputEventPath(benchmark::State& state) {
  // A *firing* threshold localised by the dense-output cubic root solve:
  // the node discharges from 5.2 V with no harvest, fires the watch
  // level, and the integrator continues to the end of the second. The
  // bisection path pays ~60 Hermite evaluations at the crossing; the
  // cubic solve a handful of polynomial ones.
  const ehsim::ConstantCurrentSource source(0.0);
  const ehsim::ConstantPowerLoad load(3.5);
  const ehsim::EhCircuit circuit(source, load,
                                 ehsim::Capacitor{47e-3, 0.0, 50e3});
  ehsim::Rk23Options opt;
  opt.max_step = 0.05;
  opt.step_control = ehsim::StepControl::kPi;
  opt.event_localization = ehsim::EventLocalization::kDenseRoot;
  ehsim::Rk23Integrator ig(circuit, opt);
  const auto ev =
      ehsim::EventSpec::threshold(5.0, ehsim::EventDirection::kFalling, 1);
  for (auto _ : state) {
    const double v0 = 5.2;
    ig.reset(0.0, std::span<const double>(&v0, 1));
    auto res = ig.advance(1.0, std::span<const ehsim::EventSpec>(&ev, 1));
    benchmark::DoNotOptimize(res.event_fired);
    res = ig.advance(1.0);
    benchmark::DoNotOptimize(res.steps_taken);
  }
}
BENCHMARK(BM_DenseOutputEventPath);

void BM_ControllerIsr(benchmark::State& state) {
  hw::VoltageMonitor monitor;
  ctl::PowerNeutralController controller(xu4(), monitor, {});
  controller.calibrate(5.2, 0.0);
  double t = 0.0;
  soc::OperatingPoint opp{4, {4, 1}};
  for (auto _ : state) {
    t += 0.3;
    auto plan = controller.on_interrupt(
        (static_cast<long>(t * 10) % 2) != 0
            ? hw::MonitorEdge::kLowFalling
            : hw::MonitorEdge::kHighRising,
        t, opp);
    benchmark::DoNotOptimize(plan.size());
  }
}
BENCHMARK(BM_ControllerIsr);

void BM_MonitorThresholdProgramming(benchmark::State& state) {
  hw::VoltageMonitor monitor;
  double v = 4.4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.set_thresholds(v, v + 0.2, v + 0.1));
    v += 0.05;
    if (v > 5.4) v = 4.4;
  }
}
BENCHMARK(BM_MonitorThresholdProgramming);

/// One simulated minute of midday partial sun under the power-neutral
/// controller, through sweep::run_scenario (weather synthesis included).
/// The integrator is a registry kind, so these benches always measure
/// exactly what `--integrator <kind>` runs.
void bench_end_to_end(benchmark::State& state,
                      ehsim::PvSource::Mode pv_mode,
                      const char* integrator = "rk23") {
  sweep::ScenarioSpec spec;
  spec.condition = trace::WeatherCondition::kPartialSun;
  spec.t_start = 12.0 * 3600.0;
  spec.t_end = spec.t_start + 60.0;
  spec.pv_mode = pv_mode;
  spec.integrator = sweep::IntegratorSpec::parse(integrator);
  for (auto _ : state) {
    const auto r = sweep::run_scenario(spec);
    benchmark::DoNotOptimize(r.metrics.instructions);
  }
}

void BM_EndToEndSimulatedMinute(benchmark::State& state) {
  bench_end_to_end(state, ehsim::PvSource::Mode::kExact);
}
BENCHMARK(BM_EndToEndSimulatedMinute)->Unit(benchmark::kMillisecond);

void BM_EndToEndSimulatedMinuteTabulated(benchmark::State& state) {
  bench_end_to_end(state, ehsim::PvSource::Mode::kTabulated);
}
BENCHMARK(BM_EndToEndSimulatedMinuteTabulated)
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndSimulatedMinuteRk23Pi(benchmark::State& state) {
  bench_end_to_end(state, ehsim::PvSource::Mode::kExact, "rk23pi");
}
BENCHMARK(BM_EndToEndSimulatedMinuteRk23Pi)->Unit(benchmark::kMillisecond);

// One simulated HOUR at a pinned operating point under constant
// irradiance -- a sensor node on steady sun. The node charges to its
// stable equilibrium in the first seconds and then nothing happens for
// 59.9 minutes: exactly the shape the coasting fast path exists for.
// (The power-neutral controller is NOT quiescent here -- it limit-cycles
// between thresholds -- so the static OPP is the honest scenario.)
void bench_quiescent_hour(benchmark::State& state, bool coast) {
  // Array calibration and the OPP search are hoisted out of the loop so
  // the iteration times the simulated hour, not the setup.
  ehsim::PvSource source(sim::paper_pv_array(),
                         [](double) { return 700.0; });
  source.set_irradiance_hold(
      [](double) { return std::numeric_limits<double>::infinity(); });
  const auto opp = sim::balanced_opp(xu4(), source.available_power(0.0));
  sweep::ScenarioSpec spec;  // only used for the config shape
  spec.t_start = 0.0;
  spec.t_end = 3600.0;
  spec.integrator = sweep::IntegratorSpec::parse("rk23pi");
  sim::SimConfig cfg = sweep::make_sim_config(spec);
  cfg.coast = coast;
  for (auto _ : state) {
    auto r = sim::make_pv_engine(xu4(), source,
                                 sim::ControlSelection::pinned(opp), cfg,
                                 /*warm_start=*/true)
                 .engine->run();
    benchmark::DoNotOptimize(r.metrics.instructions);
  }
}

/// One batched window: `width` midday solar scenarios stepped in lockstep
/// under the given integrator kind, through the same run_scenarios_batched
/// entry the sweep runner uses.
void bench_step_window(benchmark::State& state, const char* kind,
                       std::size_t width) {
  std::vector<sweep::ScenarioSpec> specs(width);
  for (std::size_t i = 0; i < width; ++i) {
    auto& s = specs[i];
    s.label = "bench-lane-" + std::to_string(i);
    s.condition = trace::WeatherCondition::kPartialSun;
    s.t_start = 12.0 * 3600.0 + 7.0 * static_cast<double>(i);
    s.t_end = s.t_start + 30.0;
    s.seed = 0xBE7C4ull + i;
    s.record_series = false;
    s.integrator = sweep::IntegratorSpec::parse(
        std::string(kind) + ":width=" + std::to_string(width));
  }
  sweep::ScenarioAssets assets;
  for (auto _ : state) {
    const auto outcomes =
        sweep::run_scenarios_batched(specs.data(), specs.size(), assets);
    benchmark::DoNotOptimize(outcomes.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(width));
}

void BM_StepWindowSimd(benchmark::State& state) {
  bench_step_window(state, "rk23simd", 4);
}
BENCHMARK(BM_StepWindowSimd)->Unit(benchmark::kMillisecond);

void BM_CoastingQuiescentHour(benchmark::State& state) {
  bench_quiescent_hour(state, /*coast=*/true);
}
BENCHMARK(BM_CoastingQuiescentHour)->Unit(benchmark::kMillisecond);

void BM_QuiescentHourNoCoast(benchmark::State& state) {
  // The same hour stepped the ordinary way: the denominator of the
  // coasting speedup the performance docs quote.
  bench_quiescent_hour(state, /*coast=*/false);
}
BENCHMARK(BM_QuiescentHourNoCoast)->Unit(benchmark::kMillisecond);

/// A real aggregate row: a minute of midday partial sun under the
/// power-neutral controller, as a worker streams it.
const sweep::SummaryRow& sample_row() {
  static const sweep::SummaryRow row = [] {
    sweep::SweepOutcome outcome;
    outcome.spec.label = "partial-sun/pns/seed=42";
    outcome.spec.condition = trace::WeatherCondition::kPartialSun;
    outcome.spec.t_start = 12.0 * 3600.0;
    outcome.spec.t_end = outcome.spec.t_start + 60.0;
    outcome.spec.seed = 42;
    outcome.result = sweep::run_scenario(outcome.spec);
    outcome.ok = true;
    return sweep::summarize(outcome);
  }();
  return row;
}

/// Worker side: one row frame encoded for the daemon.
void BM_RowFrameEncode(benchmark::State& state) {
  const sweep::SummaryRow& row = sample_row();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string frame = sweepd::make_row("job-1", 7, 17, 0.0123, row);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.counters["frame_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_RowFrameEncode);

/// Daemon side: one row frame parsed back into a SummaryRow.
void BM_RowFrameDecode(benchmark::State& state) {
  const std::string frame =
      sweepd::make_row("job-1", 7, 17, 0.0123, sample_row());
  for (auto _ : state) {
    const JsonValue msg = sweepd::parse_message(frame);
    const sweep::SummaryRow row = sweep::summary_row_from_json(msg.at("row"));
    benchmark::DoNotOptimize(row.vc_mean);
  }
  state.counters["frame_bytes"] = static_cast<double>(frame.size());
}
BENCHMARK(BM_RowFrameDecode);

/// Daemon side: one row appended to a checkpoint journal (encode, CRC,
/// write and flush). The file is recreated every 4096 appends so a long
/// run does not grow it without bound.
void BM_JournalAppend(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pns-bench-journal.jsonl")
          .string();
  const sweep::JournalHeader header{"bench", 1u << 20};
  const sweep::SummaryRow& row = sample_row();
  auto journal = sweep::JournalWriter::create(path, header);
  std::size_t index = 0;
  for (auto _ : state) {
    journal.append(index, row, 0.0123);
    if (++index % 4096 == 0) {
      state.PauseTiming();
      journal = sweep::JournalWriter::create(path, header);
      state.ResumeTiming();
    }
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_JournalAppend);

}  // namespace

BENCHMARK_MAIN();
