// Table 3 of the paper: the pseudo-Erlang approximation on the Q3 reduced
// model, sweeping the number of phases k = 1 ... 1024.  Reported per row:
// the probability, its relative error against the high-precision Sericola
// value, and the wall-clock time.
//
// Paper reference rows (SPNP v6 on a 1 GHz Pentium III):
//   k=1    0.41067310  17.10%   < 0.01 s
//   k=256  0.49520304   0.04%     0.50 s
//   k=1024 0.49535410   0.01%    21.34 s
//
// Shape expectations: the estimate approaches the reference from below
// with error ~ 1/k; time grows superlinearly in k (the uniformisation
// rate grows by k*rho_max/r and every step touches k lanes per state).
//
// Below the table, timed rows (median of 5 after one warmup, via
// BenchObs::timed_reps, with the run's uniformisation/steps) cover the
// Q3 sweep at k = 1, 4, 16, 64, 256 and 1024 and two larger Erlang-256
// workloads: a Figure-1-shaped 4 x 4 lattice on the lumped tandem queue
// (8 x 8 replicated 512 times, 81 quotient states) and one until query
// on the cluster model with 8 workstations per side.  The BenchObs
// guard writes BENCH_table3_erlang_obs.json and appends a ledger line.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/checker.hpp"
#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "logic/parser.hpp"
#include "models/adhoc.hpp"
#include "models/cluster.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

double erlang_once(std::size_t k) {
  const Mrm reduced = build_q3_reduced_mrm();
  const ErlangEngine engine(k);
  StateSet success(reduced.num_states());
  success.insert(3);
  return engine.joint_probability_all_starts(
      reduced, kTimeBoundHours, kRewardBoundMah, success)[reduced.initial_state()];
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
  std::printf("=== Table 3: pseudo-Erlang approximation ===\n");
  std::printf("Q3 on the reduced 5-state MRM; reference (Sericola 1e-10): "
              "%.8f\n", reference);
  std::printf("%6s  %-14s %-10s %10s\n", "k", "value", "rel.err", "time");
  for (std::size_t k = 1; k <= 1024; k *= 2) {
    WallTimer timer;
    const double value = erlang_once(k);
    const double seconds = timer.seconds();
    std::printf("%6zu  %.8f %7.2f%% %9.2f ms\n", k, value,
                100.0 * std::abs(value - reference) / reference,
                seconds * 1e3);
  }
  std::printf("\n");
}

/// Time `fn` with timed_reps under `label` and print its uniformisation
/// steps per run (the step count is deterministic, so one extra run
/// measures it).
template <typename Fn>
void timed_row(csrl_bench::BenchObs& obs_guard, const std::string& label,
               Fn&& fn) {
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  fn();
  const std::uint64_t steps = obs::metrics_delta(before, obs::snapshot_metrics())
                                  .counter("uniformisation/steps");
  obs_guard.timed_reps(label, fn);
  std::printf("        %-32s %llu uniformisation steps per run\n",
              label.c_str(), static_cast<unsigned long long>(steps));
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs_guard("table3_erlang");
  print_table();

  for (std::size_t k : {1, 4, 16, 64, 256, 1024})
    timed_row(obs_guard, "erlang_q3_k" + std::to_string(k),
              [k] { return erlang_once(k); });

  // Figure-1 shape on the lumped tandem queue: times in [1, 2], reward
  // bounds binding at every time (r <= 0.9 rho_max t_min).
  {
    CheckOptions options;
    options.engine = P3Engine::kErlang;
    options.erlang_phases = 256;
    options.lump = true;
    const Mrm tandem =
        replicated_mrm(tandem_queue_mrm(8, 8, 2.0, 2.5, 2.0), 512);
    const Checker checker(tandem, options);
    BatchQuery query;
    query.phi = parse_formula("!full1");
    query.psi = parse_formula("full2");
    query.times = {1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0};
    const double binding = 16.0 * 1.0;  // rho_max * t_min
    query.rewards = {0.6 * binding, 0.7 * binding, 0.8 * binding,
                     0.9 * binding};
    timed_row(obs_guard, "erlang256_tandem_4x4",
              [&] { return checker.until_grid(query).per_state[0][0]; });
  }

  // One until query on cluster(8): premium lost within t = 30 while the
  // delivered capacity stays below (2N - 3) t.
  {
    ClusterParams params;
    params.workstations_per_side = 8;
    params.premium_threshold = 7;
    CheckOptions options;
    options.engine = P3Engine::kErlang;
    options.erlang_phases = 256;
    const Mrm cluster = build_cluster_mrm(params);
    const Checker checker(cluster, options);
    const FormulaPtr query =
        parse_formula("P=? [ premium U[0,30]{0,390} !premium ]");
    timed_row(obs_guard, "erlang256_cluster8",
              [&] { return checker.check(*query).value; });
  }
  return 0;
}
