// Table 4 of the paper: the Tijms-Veldman discretisation on the Q3
// reduced model, halving the step size d row by row.  Reported: the
// probability, the relative error against the high-precision Sericola
// value, and the wall-clock time.
//
// Paper reference rows (1 GHz Pentium III; its d column is garbled in the
// available scan, but the 4x time growth per row pins consecutive
// halvings, and E(s) d < 1 forces d <= 1/32 for this model):
//   0.49566676  0.05%    26.71 s
//   0.49553603  0.03%   107.62 s
//   0.49547017  0.01%   431.93 s
//   0.49543712 <0.01%  1712.00 s
//
// Shape expectations: error shrinks linearly in d, time grows ~ 1/d^2.
//
// A second table times the all-start-states shape (what Sat-set
// computation needs): the engine's single adjoint run against one forward
// sweep per start state, on the Q3 model and on a 1000-state random MRM.
#include <benchmark/benchmark.h>

#include <cmath>
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engines/discretisation_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "models/adhoc.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

double discretisation_once(double d) {
  const Mrm reduced = build_q3_reduced_mrm();
  const DiscretisationEngine engine(d);
  return engine.joint_distribution(reduced, kTimeBoundHours, kRewardBoundMah)
      .per_state[3];
}

double sericola_reference() {
  const Mrm reduced = build_q3_reduced_mrm();
  const SericolaEngine engine(1e-10);
  StateSet success(reduced.num_states());
  success.insert(3);
  return engine.joint_probability_all_starts(
      reduced, kTimeBoundHours, kRewardBoundMah, success)[reduced.initial_state()];
}

void print_table() {
  const double reference = sericola_reference();
  std::printf("=== Table 4: Tijms-Veldman discretisation ===\n");
  std::printf("Q3 on the reduced 5-state MRM; reference (Sericola 1e-10): "
              "%.8f\n", reference);
  std::printf("%8s  %-14s %-10s %10s\n", "d", "value", "rel.err", "time");
  for (int denom : {32, 64, 128, 256}) {
    WallTimer timer;
    const double value = discretisation_once(1.0 / denom);
    const double seconds = timer.seconds();
    std::printf("   1/%-4d  %.8f %7.3f%% %9.2f ms\n", denom, value,
                100.0 * std::abs(value - reference) / reference,
                seconds * 1e3);
  }
  std::printf("\n");
}

void print_grid_comparison() {
  // The batched-lattice path (core/batch.hpp): one F-grid sweep to
  // (t_max, r_max) harvests every smaller Table-4 bound on the way,
  // against the point-by-point loop it replaces.
  const Mrm reduced = build_q3_reduced_mrm();
  const double d = 1.0 / 64.0;
  const DiscretisationEngine engine(d);
  const std::vector<double> times{6.0, 12.0, kTimeBoundHours};
  const std::vector<double> rewards{150.0, 300.0, kRewardBoundMah};

  WallTimer timer;
  const auto batched = engine.joint_distribution_grid(reduced, times, rewards);
  const double batched_ms = timer.seconds() * 1e3;
  timer.reset();
  const auto looped =
      joint_distribution_grid_reference(engine, reduced, times, rewards);
  const double looped_ms = timer.seconds() * 1e3;

  bool bitwise = true;
  for (std::size_t g = 0; g < batched.size(); ++g)
    for (std::size_t s = 0; s < batched[g].per_state.size(); ++s)
      bitwise = bitwise && batched[g].per_state[s] == looped[g].per_state[s];
  std::printf("batched %zux%zu lattice at d=1/64: %.2f ms vs %.2f ms "
              "point-by-point (%.1fx), bitwise identical: %s\n\n",
              times.size(), rewards.size(), batched_ms, looped_ms,
              batched_ms > 0.0 ? looped_ms / batched_ms : 0.0,
              bitwise ? "yes" : "NO");
}

/// One all-starts comparison: the adjoint lattice (one backward run)
/// against n forward joint_distribution runs, one per start state.
void print_all_starts_row(csrl_bench::BenchObs& obs_guard, const char* label,
                          const Mrm& model, const StateSet& target, double t,
                          double r, double d) {
  const DiscretisationEngine engine(d);
  std::vector<Mrm> starts;
  for (std::size_t s = 0; s < model.num_states(); ++s)
    starts.emplace_back(Ctmc(model.rates()), model.rewards(),
                        model.labelling(), s);
  const auto adjoint = [&] {
    return engine.joint_probability_all_starts(model, t, r, target);
  };
  const auto forward = [&] {
    std::vector<double> values;
    for (const Mrm& from_s : starts)
      values.push_back(
          engine.joint_distribution(from_s, t, r).probability_in(target));
    return values;
  };
  const auto sweeps = [](const auto& fn) {
    const obs::ScopedRecording recording(true);
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    fn();
    return obs::metrics_delta(before, obs::snapshot_metrics())
        .counter("p3/discretisation/sweeps");
  };

  const std::string name = std::string("all_starts_") + label;
  const std::vector<double> backward_values =
      obs_guard.timed_reps(name + "_adjoint", adjoint);
  const double backward_ms = obs_guard.reps().back().median_ms;
  const std::vector<double> forward_values =
      obs_guard.timed_reps(name + "_forward_per_start", forward);
  const double forward_ms = obs_guard.reps().back().median_ms;
  double max_diff = 0.0;
  for (std::size_t s = 0; s < model.num_states(); ++s)
    max_diff =
        std::max(max_diff, std::abs(backward_values[s] - forward_values[s]));
  std::printf("%-22s %6zu %10.3f %12.3f %7.1fx %8llu %10llu %10.2e\n", label,
              model.num_states(), backward_ms, forward_ms,
              backward_ms > 0.0 ? forward_ms / backward_ms : 0.0,
              static_cast<unsigned long long>(sweeps(adjoint)),
              static_cast<unsigned long long>(sweeps(forward)), max_diff);
}

void print_all_starts_comparison(csrl_bench::BenchObs& obs_guard) {
  // The Sat-set shape: Pr_s{Y_t <= r, X_t in target} for every start s.
  // The engine runs the adjoint recursion once; the forward alternative is
  // one F sweep per start state.
  std::printf("=== All start states: adjoint lattice vs per-start forward "
              "sweeps ===\n");
  std::printf("%-22s %6s %10s %12s %8s %8s %10s %10s\n", "model", "states",
              "adjoint ms", "forward ms", "speedup", "sweeps", "fwd sweeps",
              "max|diff|");
  const Mrm reduced = build_q3_reduced_mrm();
  StateSet success(reduced.num_states());
  success.insert(3);
  print_all_starts_row(obs_guard, "q3_reduced", reduced, success,
                       kTimeBoundHours, kRewardBoundMah, 1.0 / 32.0);
  const Mrm random = random_mrm(1, 1000, 0.002);
  print_all_starts_row(obs_guard, "random_mrm_1000", random,
                       random.labelling().states_with("b"), 0.5, 0.75,
                       1.0 / 32.0);
  std::printf("(wall: median of 5 reps after one warmup; sweeps: "
              "p3/discretisation/sweeps of one call)\n\n");
}

void BM_DiscretisationQ3(benchmark::State& state) {
  const double d = 1.0 / static_cast<double>(state.range(0));
  double value = 0.0;
  for (auto _ : state) {
    value = discretisation_once(d);
    benchmark::DoNotOptimize(value);
  }
  state.counters["probability"] = value;
  state.counters["inv_step"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_DiscretisationQ3)->RangeMultiplier(2)->Range(32, 256)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  csrl_bench::BenchObs obs_guard("table4_discretisation");
  print_table();
  print_grid_comparison();
  print_all_starts_comparison(obs_guard);
  obs_guard.timed_reps("discretisation_q3_d1_32",
                       [] { return discretisation_once(1.0 / 32.0); });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
