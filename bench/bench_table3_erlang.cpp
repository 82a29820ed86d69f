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
// BenchObs::timed_reps, with the run's uniformisation steps and
// steady-state cutoffs) cover the Q3 sweep at k = 1, 4, 16, 64, 256 and
// 1024 and two larger Erlang-256 workloads: a Figure-1-shaped 4 x 4
// lattice on the lumped tandem queue (8 x 8 replicated 512 times, 81
// quotient states) and one until query on the cluster model with 8
// workstations per side.  Last come the phase-step rows: 100 steps of the
// phase kernel (PhaseOperator::multiply_phase_fused) on the 8 x 8 tandem
// queue at k = 256 — the lumped quotient of the lattice row's model —
// once per lane width the host can run (matrix/simd.hpp), so the ledger
// shows each variant's own time.  They run on one thread with recording
// paused and add no counter.  The table and the rows go to
// BENCH_table3_erlang.json; the BenchObs guard writes
// BENCH_table3_erlang_obs.json, whose cost/phase, uniformisation/steps
// and steady_state_cutoffs counters CI gates exactly against
// bench/baselines, and appends a ledger line.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/checker.hpp"
#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "ctmc/phase_chain.hpp"
#include "logic/parser.hpp"
#include "matrix/phase_operator.hpp"
#include "matrix/simd.hpp"
#include "models/adhoc.hpp"
#include "models/cluster.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

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

/// One row of the printed table.
struct TableRow {
  std::size_t k;
  double value;
  double rel_err;
  double ms;
};

/// One timed row: its label and the per-run counts.
struct TimedRow {
  std::string label;
  std::uint64_t steps;
  std::uint64_t cutoffs;
};

std::vector<TableRow> print_table(double reference) {
  std::vector<TableRow> rows;
  std::printf("=== Table 3: pseudo-Erlang approximation ===\n");
  std::printf("Q3 on the reduced 5-state MRM; reference (Sericola 1e-10): "
              "%.8f\n", reference);
  std::printf("%6s  %-14s %-10s %10s\n", "k", "value", "rel.err", "time");
  for (std::size_t k = 1; k <= 1024; k *= 2) {
    WallTimer timer;
    const double value = erlang_once(k);
    const double ms = timer.seconds() * 1e3;
    rows.push_back({k, value, std::abs(value - reference) / reference, ms});
    std::printf("%6zu  %.8f %7.2f%% %9.2f ms\n", k, value,
                100.0 * rows.back().rel_err, ms);
  }
  std::printf("\n");
  return rows;
}

/// Time `fn` with timed_reps under `label` and print its uniformisation
/// steps and steady-state cutoffs per run (the counts are deterministic,
/// so one extra run measures them).
template <typename Fn>
TimedRow timed_row(csrl_bench::BenchObs& obs_guard, const std::string& label,
                   Fn&& fn) {
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  fn();
  const obs::MetricsSnapshot delta =
      obs::metrics_delta(before, obs::snapshot_metrics());
  const TimedRow row{label, delta.counter("uniformisation/steps"),
                     delta.counter("uniformisation/steady_state_cutoffs")};
  obs_guard.timed_reps(label, fn);
  std::printf("        %-32s %llu uniformisation steps, %llu cutoffs per "
              "run\n",
              label.c_str(), static_cast<unsigned long long>(row.steps),
              static_cast<unsigned long long>(row.cutoffs));
  return row;
}

/// BENCH_table3_erlang.json: the table, then each timed row with its
/// counts and its timed_reps median and minimum.
bool write_report(double reference, const std::vector<TableRow>& table,
                  const std::vector<TimedRow>& rows,
                  const csrl_bench::BenchObs& obs_guard) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("csrl-bench-table3-erlang-v1");
  w.key("bench").value("table3_erlang");
  w.key("reference").value(reference);
  w.key("table").begin_array();
  for (const TableRow& r : table) {
    w.begin_object();
    w.key("k").value(static_cast<std::uint64_t>(r.k));
    w.key("value").value(r.value);
    w.key("rel_err").value(r.rel_err);
    w.key("ms").value(r.ms);
    w.end_object();
  }
  w.end_array();
  w.key("reps").begin_array();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const csrl_bench::BenchObs::RepStats& stats = obs_guard.reps()[i];
    w.begin_object();
    w.key("name").value(rows[i].label);
    w.key("steps").value(rows[i].steps);
    w.key("steady_state_cutoffs").value(rows[i].cutoffs);
    w.key("reps").value(static_cast<std::uint64_t>(stats.reps));
    w.key("median_ms").value(stats.median_ms);
    w.key("min_ms").value(stats.min_ms);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const std::string text = std::move(w).str();
  const char* path = "BENCH_table3_erlang.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return true;
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs_guard("table3_erlang");
  const double reference = sericola_reference();
  const std::vector<TableRow> table = print_table(reference);

  std::vector<TimedRow> rows;
  for (std::size_t k : {1, 4, 16, 64, 256, 1024})
    rows.push_back(timed_row(obs_guard, "erlang_q3_k" + std::to_string(k),
                             [k] { return erlang_once(k); }));

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
    rows.push_back(timed_row(obs_guard, "erlang256_tandem_4x4", [&] {
      return checker.until_grid(query).per_state[0][0];
    }));
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
    rows.push_back(timed_row(obs_guard, "erlang256_cluster8",
                             [&] { return checker.check(*query).value; }));
  }

  // Phase steps of the lattice row's kernel on its quotient chain: the
  // 8 x 8 tandem queue, each state advancing its 256 budget phases at
  // rho(s) k / r for the lattice's r = 0.8 rho_max t_min.
  {
    constexpr std::size_t kPhases = 256;
    constexpr std::size_t kSteps = 100;
    const Mrm tandem = tandem_queue_mrm(8, 8, 2.0, 2.5, 2.0);
    std::vector<double> advance(tandem.num_states());
    for (std::size_t s = 0; s < advance.size(); ++s)
      advance[s] = tandem.reward(s) * static_cast<double>(kPhases) / 12.8;
    const PhaseChain chain(tandem.chain(), advance, CsrMatrix(), kPhases);
    const PhaseOperator op = chain.uniformised(chain.max_exit_rate());
    std::vector<double> start(op.size(), 0.0);
    const StateSet& full2 = tandem.labelling().states_with("full2");
    for (std::size_t s = 0; s < tandem.num_states(); ++s)
      if (full2.contains(s))
        std::fill(start.begin() + s * kPhases,
                  start.begin() + (s + 1) * kPhases, 1.0);
    std::vector<double> x(op.size()), y(op.size());
    // One thread: the rows time the kernel, not the pool's dispatch.
    const std::size_t threads = ThreadPool::global().num_threads();
    ThreadPool::set_global_threads(1);
    obs::ScopedRecording paused(false);
    for (LaneWidth width : {LaneWidth::base, LaneWidth::avx2}) {
      const std::string label = std::string("phase_step_tandem8_k256_") +
                                (width == LaneWidth::avx2 ? "avx2" : "base");
      if (!lane_width_available(width)) {
        std::printf("        %-32s skipped: not available on this host\n",
                    label.c_str());
        continue;
      }
      obs_guard.timed_reps(label, [&] {
        x = start;
        for (std::size_t step = 0; step < kSteps; ++step) {
          (void)op.multiply_phase_fused(x, y, {}, kNoConvergenceScan, width);
          x.swap(y);
        }
        return x[0];
      });
      rows.push_back({label, kSteps, 0});
      std::printf("        %-32s %zu phase steps per run\n", label.c_str(),
                  kSteps);
    }
    ThreadPool::set_global_threads(threads);
  }
  return write_report(reference, table, rows, obs_guard) ? 0 : 1;
}
