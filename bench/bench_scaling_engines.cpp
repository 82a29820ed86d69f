// Scaling study: how the three Section-4 procedures behave as the state
// space grows — the observations of the paper's Section 5.4 ("General
// observations") made measurable:
//   * Sericola is fast and has the only a-priori error bound, but its
//     cost grows with N_eps^2 and the number of reward classes;
//   * the discretisation suffers from large time bounds and state spaces;
//   * pseudo-Erlang is cheap for small k but its chain is |S|*k states.
#include <cstdio>

#include "core/engines/discretisation_engine.hpp"
#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

struct Workload {
  Mrm model;
  double t;
  double r;
  StateSet target;
};

Workload workload(std::size_t states) {
  Mrm model = birth_death_mrm(states, 2.0, 3.0);
  const double t = 4.0;
  const double r = 0.5 * model.max_reward() * t;
  StateSet target(states);
  target.insert(states - 1);
  return {std::move(model), t, r, std::move(target)};
}

void print_comparison() {
  std::printf("=== Scaling: the three engines vs state-space size ===\n");
  std::printf("birth-death chains, t=4, r=0.5*max_reward*t\n");
  std::printf("%7s  %-22s  %-22s  %-22s\n", "states", "sericola(1e-8)",
              "erlang(k=64)", "discretisation(1/64)");
  for (std::size_t n : {4u, 8u, 16u, 32u}) {
    const Workload w = workload(n);
    std::printf("%7zu", n);

    WallTimer sericola_timer;
    const double ps = SericolaEngine(1e-8).joint_probability_all_starts(
        w.model, w.t, w.r, w.target)[0];
    std::printf("  %.6f %8.2f ms", ps, sericola_timer.seconds() * 1e3);

    WallTimer erlang_timer;
    const double pe = ErlangEngine(64).joint_probability_all_starts(
        w.model, w.t, w.r, w.target)[0];
    std::printf("  %.6f %8.2f ms", pe, erlang_timer.seconds() * 1e3);

    WallTimer disc_timer;
    const double pd = DiscretisationEngine(1.0 / 64)
                          .joint_probability_all_starts(w.model, w.t, w.r,
                                                        w.target)[0];
    std::printf("  %.6f %8.2f ms\n", pd, disc_timer.seconds() * 1e3);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs_guard("scaling_engines");
  print_comparison();
  {
    const Workload w = workload(32);
    const SericolaEngine engine(1e-8);
    obs_guard.timed_reps("sericola_n32", [&] {
      return engine.joint_probability_all_starts(w.model, w.t, w.r,
                                                 w.target)[0];
    });
  }
  return 0;
}
