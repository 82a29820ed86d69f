// Ablation (DESIGN.md): the Sericola engine's vector formulation vs the
// paper-faithful matrix-shaped computation.
//
// The recursion of [23, Thm 5.6] is stated over |S| x |S| matrices
// C(h,n,k); the paper reports O(N^2 |S|^3) time.  Our engine iterates the
// vectors C(h,n,k) * v for the fixed target indicator v, costing a factor
// |S| less.  matrix_cost_pass() below reconstructs the per-final-state
// answer by running the vector pass once per singleton target {j} — i.e.
// it *is* the matrix-cost variant — so timing both quantifies what the
// reformulation buys at different model sizes.
//
// The cost-cliff rows time the checker on a 2-state model (0 -> 1 at rate
// 1, reward 1 on both states, `a` on state 1) with
// P=? [ true U[0,t]{0,t/2} a ] as t grows: the truncation depth grows
// with t and the recursion cost with its square.  Of the three states of
// the Theorem-1 reduction only state 0 recurses; success and fail are
// absorbing with reward 0.  `--quick` stops the cliff at t = 1e3 (the
// t = 3e3 row alone takes about 0.75 s over its six runs).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/checker.hpp"
#include "core/engines/sericola_engine.hpp"
#include "logic/parser.hpp"
#include "matrix/vector_ops.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

Mrm scaled_model(std::size_t states) {
  return birth_death_mrm(states, 2.0, 3.0);
}

/// Pr_alpha{Y_t <= r, X_t = j} for every final state j: one vector pass
/// per singleton target {j}, read from the initial distribution alpha.
std::vector<double> matrix_cost_pass(const SericolaEngine& engine,
                                     const Mrm& model, double t, double r) {
  const std::size_t n = model.num_states();
  std::vector<double> per_final_state(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    StateSet single(n);
    single.insert(j);
    per_final_state[j] =
        dot(model.initial_distribution(),
            engine.joint_probability_all_starts(model, t, r, single));
  }
  return per_final_state;
}

Mrm cliff_model() {
  CsrBuilder rates(2, 2);
  rates.add(0, 1, 1.0);
  Labelling labelling(2);
  labelling.add_label(1, "a");
  return Mrm(Ctmc(rates.build()), {1.0, 1.0}, std::move(labelling), 0);
}

void print_comparison() {
  std::printf("=== Ablation: Sericola vector pass vs matrix-cost pass ===\n");
  std::printf("birth-death chains, t=4, r=0.4*max_reward*t, eps=1e-8\n");
  std::printf("%7s  %12s  %12s  %8s\n", "states", "vector", "matrix-cost",
              "speedup");
  for (std::size_t n : {4u, 8u, 16u, 32u}) {
    const Mrm model = scaled_model(n);
    const double t = 4.0;
    const double r = 0.4 * model.max_reward() * t;
    StateSet target(n);
    target.insert(n - 1);
    const SericolaEngine engine(1e-8);

    WallTimer vector_timer;
    const auto by_vector =
        engine.joint_probability_all_starts(model, t, r, target);
    const double vector_seconds = vector_timer.seconds();

    WallTimer matrix_timer;
    const auto by_matrix = matrix_cost_pass(engine, model, t, r);
    const double matrix_seconds = matrix_timer.seconds();

    std::printf("%7zu  %9.2f ms  %9.2f ms  %7.1fx   |diff| = %.2e\n", n,
                vector_seconds * 1e3, matrix_seconds * 1e3,
                matrix_seconds / vector_seconds,
                std::abs(by_matrix[n - 1] - by_vector[0]));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  if (argc > 2 || (argc == 2 && !quick)) {
    std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
    return 2;
  }
  csrl_bench::BenchObs obs_guard("ablation_sericola");
  print_comparison();
  {
    const Mrm model = scaled_model(32);
    const double t = 4.0;
    const double r = 0.4 * model.max_reward() * t;
    StateSet target(32);
    target.insert(31);
    const SericolaEngine engine(1e-8);
    obs_guard.timed_reps("sericola_vector_n32", [&] {
      return engine.joint_probability_all_starts(model, t, r, target)[0];
    });
  }
  const Mrm cliff = cliff_model();
  const Checker checker(cliff);
  for (double t : {1e2, 1e3, 3e3}) {
    if (quick && t > 1e3) break;
    char formula[64];
    char label[32];
    std::snprintf(formula, sizeof formula, "P=? [ true U[0,%g]{0,%g} a ]", t,
                  t / 2.0);
    std::snprintf(label, sizeof label, "sericola_cliff_t%g", t);
    const FormulaPtr query = parse_formula(formula);
    const double value = obs_guard.timed_reps(
        label, [&] { return checker.value_initially(*query); });
    std::printf("cost cliff t=%g: P = %.10f\n", t, value);
  }
  return 0;
}
