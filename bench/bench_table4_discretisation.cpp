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
// computation needs): the engine's single adjoint run, on the Q3 model
// and on a 1000-state random MRM.
//
// `--quick` stops the first table at d = 1/64 (the 1/128 and 1/256 rows
// take about 4 s of the full run's 7 s) and names its obs report
// BENCH_table4_discretisation_quick_obs.json, so a full run's report
// (BENCH_table4_discretisation_obs.json) is never diffed against the
// quick baseline; CI runs it that way.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
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

StateSet q3_success(const Mrm& reduced) {
  StateSet success(reduced.num_states());
  success.insert(3);
  return success;
}

double discretisation_once(double d) {
  const Mrm reduced = build_q3_reduced_mrm();
  const DiscretisationEngine engine(d);
  return engine.joint_probability_all_starts(
      reduced, kTimeBoundHours, kRewardBoundMah,
      q3_success(reduced))[reduced.initial_state()];
}

double sericola_reference() {
  const Mrm reduced = build_q3_reduced_mrm();
  const SericolaEngine engine(1e-10);
  return engine.joint_probability_all_starts(
      reduced, kTimeBoundHours, kRewardBoundMah,
      q3_success(reduced))[reduced.initial_state()];
}

void print_table(csrl_bench::BenchObs& obs_guard, bool quick) {
  const double reference = sericola_reference();
  std::printf("=== Table 4: Tijms-Veldman discretisation ===\n");
  std::printf("Q3 on the reduced 5-state MRM; reference (Sericola 1e-10): "
              "%.8f\n", reference);
  std::printf("%8s  %-14s %-10s %10s\n", "d", "value", "rel.err", "time");
  for (int denom : {32, 64, 128, 256}) {
    if (quick && denom > 64) break;
    // The default step's row is the median of timed reps; the others
    // are single runs (1/256 alone takes seconds).
    double value = 0.0;
    double ms = 0.0;
    if (denom == 64) {
      value = obs_guard.timed_reps("discretisation_q3_d1_64", [] {
        return discretisation_once(1.0 / 64.0);
      });
      ms = obs_guard.reps().back().median_ms;
    } else {
      WallTimer timer;
      value = discretisation_once(1.0 / denom);
      ms = timer.seconds() * 1e3;
    }
    std::printf("   1/%-4d  %.8f %7.3f%% %9.2f ms\n", denom, value,
                100.0 * std::abs(value - reference) / reference, ms);
  }
  std::printf("(1/64: median of 5 reps after one warmup)\n\n");
}

void print_grid_comparison() {
  // The batched-lattice path (core/batch.hpp): one adjoint run to
  // (t_max, r_max) reads every smaller Table-4 bound on the way, against
  // the point-by-point loop it replaces.
  const Mrm reduced = build_q3_reduced_mrm();
  const StateSet success = q3_success(reduced);
  const double d = 1.0 / 64.0;
  const DiscretisationEngine engine(d);
  const std::vector<double> times{6.0, 12.0, kTimeBoundHours};
  const std::vector<double> rewards{150.0, 300.0, kRewardBoundMah};

  WallTimer timer;
  const auto batched = engine.joint_probability_all_starts_grid(
      reduced, times, rewards, success);
  const double batched_ms = timer.seconds() * 1e3;
  timer.reset();
  const auto looped =
      joint_grid_reference(engine, reduced, times, rewards, success);
  const double looped_ms = timer.seconds() * 1e3;

  const bool bitwise = batched == looped;
  std::printf("batched %zux%zu lattice at d=1/64: %.2f ms vs %.2f ms "
              "point-by-point (%.1fx), bitwise identical: %s\n\n",
              times.size(), rewards.size(), batched_ms, looped_ms,
              batched_ms > 0.0 ? looped_ms / batched_ms : 0.0,
              bitwise ? "yes" : "NO");
}

/// One all-starts row: the adjoint run (every start state at once), its
/// wall time and its number of recursion sweeps.
void print_all_starts_row(csrl_bench::BenchObs& obs_guard, const char* label,
                          const Mrm& model, const StateSet& target, double t,
                          double r, double d) {
  const DiscretisationEngine engine(d);
  const auto adjoint = [&] {
    return engine.joint_probability_all_starts(model, t, r, target);
  };
  const std::vector<double> values =
      obs_guard.timed_reps(std::string("all_starts_") + label + "_adjoint",
                           adjoint);
  const double adjoint_ms = obs_guard.reps().back().median_ms;
  std::uint64_t sweeps = 0;
  {
    const obs::ScopedRecording recording(true);
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    (void)adjoint();
    sweeps = obs::metrics_delta(before, obs::snapshot_metrics())
                 .counter("p3/discretisation/sweeps");
  }
  std::printf("%-22s %6zu %10.3f %8llu %12.8f\n", label, model.num_states(),
              adjoint_ms, static_cast<unsigned long long>(sweeps),
              values[model.initial_state()]);
}

void print_all_starts_comparison(csrl_bench::BenchObs& obs_guard) {
  // The Sat-set shape: Pr_s{Y_t <= r, X_t in target} for every start s,
  // from one run of the adjoint recursion.
  std::printf("=== All start states: one adjoint run ===\n");
  std::printf("%-22s %6s %10s %8s %12s\n", "model", "states", "adjoint ms",
              "sweeps", "initial");
  const Mrm reduced = build_q3_reduced_mrm();
  print_all_starts_row(obs_guard, "q3_reduced", reduced, q3_success(reduced),
                       kTimeBoundHours, kRewardBoundMah, 1.0 / 32.0);
  const Mrm random = random_mrm(1, 1000, 0.002);
  print_all_starts_row(obs_guard, "random_mrm_1000", random,
                       random.labelling().states_with("b"), 0.5, 0.75,
                       1.0 / 32.0);
  std::printf("(wall: median of 5 reps after one warmup; sweeps: "
              "p3/discretisation/sweeps of one call)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  if (argc > 2 || (argc == 2 && !quick)) {
    std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
    return 2;
  }
  csrl_bench::BenchObs obs_guard(quick ? "table4_discretisation_quick"
                                       : "table4_discretisation");
  print_table(obs_guard, quick);
  print_grid_comparison();
  print_all_starts_comparison(obs_guard);
  obs_guard.timed_reps("discretisation_q3_d1_32",
                       [] { return discretisation_once(1.0 / 32.0); });
  return 0;
}
