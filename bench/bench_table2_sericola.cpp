// Table 2 of the paper: the occupation-time-distribution algorithm
// (Sericola) on the Q3 reduced model, sweeping the a-priori error bound
// epsilon from 1e-1 to 1e-8.  Reported per row: the truncation depth
// N_eps, the computed path probability, and the wall-clock time.
//
// Paper reference rows (Pentium III, 1 GHz):
//   eps    N    value        time
//   1e-1   496  0.44831203    76.27 s
//   1e-8   594  0.49540399   110.78 s
//
// Shape expectations: N grows logarithmically-slowly in 1/eps, the value
// converges monotonically from below, time grows mildly with N.  Absolute
// values sit ~0.3% above the paper's (see EXPERIMENTS.md).
#include <cstdio>
#include <vector>

#include "core/engines/sericola_engine.hpp"
#include "models/adhoc.hpp"
#include "obs/obs.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

double run_once(double epsilon, std::size_t* steps_out = nullptr) {
  const Mrm reduced = build_q3_reduced_mrm();
  const SericolaEngine engine(epsilon);
  StateSet success(reduced.num_states());
  success.insert(3);
  if (steps_out) *steps_out = engine.truncation_depth(reduced, kTimeBoundHours);
  return engine.joint_probability_all_starts(
      reduced, kTimeBoundHours, kRewardBoundMah, success)[reduced.initial_state()];
}

void print_table() {
  std::printf("=== Table 2: occupation time distributions (Sericola) ===\n");
  std::printf("Q3 on the reduced 5-state MRM, t=%.0f h, r=%.0f mAh\n",
              kTimeBoundHours, kRewardBoundMah);
  std::printf("%-8s %6s  %-14s %10s\n", "eps", "N", "value", "time");
  for (double eps : {1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8}) {
    std::size_t steps = 0;
    WallTimer timer;
    const double value = run_once(eps, &steps);
    std::printf("%-8.0e %6zu  %.8f %9.2f ms\n", eps, steps, value,
                timer.seconds() * 1e3);
  }
  std::printf("paper's converged value: %.8f (see EXPERIMENTS.md)\n\n",
              kPaperQ3Reference);
}

void print_grid_comparison() {
  // The batched-lattice path (core/batch.hpp): the Table-2 property swept
  // over a bound lattice in one occupation-time pass, against the
  // point-by-point loop it replaces.
  const Mrm reduced = build_q3_reduced_mrm();
  const SericolaEngine engine(1e-8);
  StateSet success(reduced.num_states());
  success.insert(3);
  const std::vector<double> times{4.0, 8.0, 16.0, kTimeBoundHours};
  const std::vector<double> rewards{150.0, 300.0, 450.0, kRewardBoundMah};

  WallTimer timer;
  const auto batched = engine.joint_probability_all_starts_grid(
      reduced, times, rewards, success);
  const double batched_ms = timer.seconds() * 1e3;
  timer.reset();
  const auto looped =
      joint_grid_reference(engine, reduced, times, rewards, success);
  const double looped_ms = timer.seconds() * 1e3;

  bool bitwise = true;
  for (std::size_t g = 0; g < batched.size(); ++g)
    for (std::size_t s = 0; s < batched[g].size(); ++s)
      bitwise = bitwise && batched[g][s] == looped[g][s];
  std::printf("batched %zux%zu lattice: %.2f ms vs %.2f ms point-by-point "
              "(%.1fx), bitwise identical: %s\n\n",
              times.size(), rewards.size(), batched_ms, looped_ms,
              batched_ms > 0.0 ? looped_ms / batched_ms : 0.0,
              bitwise ? "yes" : "NO");
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs_guard("table2_sericola");
  print_table();
  print_grid_comparison();
  obs_guard.timed_reps("sericola_q3_eps1e-4",
                       [] { return run_once(1e-4); });
  return 0;
}
