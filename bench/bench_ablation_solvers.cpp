// Ablation (DESIGN.md): iterative-solver choice for the embedded linear
// systems (unbounded until, property class P0) — Gauss-Seidel vs
// BiCGSTAB — the Fox-Glynn-style Poisson window, and what steady-state
// detection costs and saves in the uniformisation series.
//
// Every row is a BenchObs::timed_reps median of 5 after one warmup:
//   * p0_<method>_side<n>: P=? [ !full2 U full1 ] on the n x n tandem
//     queue (n = 8, 16, 32) under Gauss-Seidel and BiCGSTAB; Gauss-Seidel
//     at n = 32 takes about 1.6 s per run;
//   * poisson_window_lt<n>: the Fox-Glynn window at lambda*t = n;
//   * transient_t5000_detection_{off,on}: one backward transient run on
//     the 16 x 16 tandem queue over a horizon long enough for the
//     steady-state cutoff to fire, so detection saves most of the series;
//   * erlang256_tandem_detection_{off,on}: one Erlang-256 lattice column
//     on the 81-state tandem queue as a phase chain (four horizons in
//     [1, 2] at reward bound 12.8), where the cutoff never fires, so the
//     pair prices the convergence scan the phase kernel carries per step.
// Each detection row prints its uniformisation steps and cutoffs per run.
// The BenchObs guard writes BENCH_ablation_solvers_obs.json and appends a
// ledger line.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "ctmc/foxglynn.hpp"
#include "ctmc/phase_chain.hpp"
#include "ctmc/uniformisation.hpp"
#include "logic/parser.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

Mrm workload(std::size_t side) {
  // Tandem queue: the forward bias makes Gauss-Seidel ordering matter.
  return tandem_queue_mrm(side, side, 1.0, 1.5, 1.2);
}

void p0_rows(csrl_bench::BenchObs& obs_guard) {
  std::printf("=== Ablation: linear solvers for unbounded until (P0) ===\n");
  const FormulaPtr formula = parse_formula("P=? [ !full2 U full1 ]");
  struct Method {
    const char* name;
    LinearMethod method;
  };
  for (std::size_t side : {8u, 16u, 32u}) {
    const Mrm model = workload(side);
    for (const Method& m : {Method{"gauss_seidel", LinearMethod::kGaussSeidel},
                            Method{"bicgstab", LinearMethod::kBicgstab}}) {
      CheckOptions options;
      options.solver.method = m.method;
      const Checker checker(model, options);
      const double value = obs_guard.timed_reps(
          std::string("p0_") + m.name + "_side" + std::to_string(side),
          [&] { return checker.value_initially(*formula); });
      std::printf("        %zu states, probability %.10f\n", model.num_states(),
                  value);
    }
  }
  std::printf("\n");
}

void poisson_window_rows(csrl_bench::BenchObs& obs_guard) {
  std::printf("=== Ablation: adaptive Poisson window ===\n");
  for (int lt : {100, 1000, 10000}) {
    const PoissonWeights w = obs_guard.timed_reps(
        "poisson_window_lt" + std::to_string(lt),
        [lt] { return poisson_weights(static_cast<double>(lt), 1e-10); });
    std::printf("        window [%zu, %zu], %zu weights\n", w.left, w.right,
                w.right - w.left + 1);
  }
  std::printf("\n");
}

/// Time `run` with steady-state detection off and on, printing the
/// uniformisation steps and cutoffs of one run of each.
template <typename Run>
void detection_pair(csrl_bench::BenchObs& obs_guard, const std::string& label,
                    Run&& run) {
  for (bool detection : {false, true}) {
    TransientOptions options;
    options.steady_state_detection = detection;
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    (void)run(options);
    const obs::MetricsSnapshot delta =
        obs::metrics_delta(before, obs::snapshot_metrics());
    obs_guard.timed_reps(label + (detection ? "_detection_on" : "_detection_off"),
                         [&] { return run(options); });
    std::printf("        %llu uniformisation steps, %llu cutoffs per run\n",
                static_cast<unsigned long long>(
                    delta.counter("uniformisation/steps")),
                static_cast<unsigned long long>(
                    delta.counter("uniformisation/steady_state_cutoffs")));
  }
}

void detection_rows(csrl_bench::BenchObs& obs_guard) {
  std::printf("=== Ablation: steady-state detection ===\n");
  const Mrm tandem = workload(16);
  StateSet target(tandem.num_states());
  target.insert(0);
  detection_pair(obs_guard, "transient_t5000", [&](const TransientOptions& o) {
    return transient_reach(tandem.chain(), target, 5000.0, o)[0];
  });

  // One Erlang-256 column of the Figure-1 tandem lattice (the lumped
  // quotient of bench_table3_erlang's tandem rows has these 81 states):
  // phase rate rho(s) k / r, target full2, read at phase 0 of state 0.
  const std::size_t phases = 256;
  const double reward_bound = 0.8 * 16.0;
  const Mrm small = tandem_queue_mrm(8, 8, 2.0, 2.5, 2.0);
  std::vector<double> advance(small.num_states());
  for (std::size_t s = 0; s < small.num_states(); ++s)
    advance[s] = small.reward(s) * static_cast<double>(phases) / reward_bound;
  const PhaseChain chain(small.chain(), advance, CsrMatrix(), phases);
  const StateSet& full2 = small.labelling().states_with("full2");
  const std::vector<double> times{1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0};
  detection_pair(obs_guard, "erlang256_tandem", [&](const TransientOptions& o) {
    return transient_reach_batch(chain, full2, times, o)[0][0];
  });
  std::printf("\n");
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs_guard("ablation_solvers");
  p0_rows(obs_guard);
  poisson_window_rows(obs_guard);
  detection_rows(obs_guard);
  return 0;
}
