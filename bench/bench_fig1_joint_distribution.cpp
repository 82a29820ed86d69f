// Figure 1 of the paper illustrates the two-dimensional stochastic
// process (X_t, Y_t) — CTMC state vs accumulated reward with an absorbing
// barrier at the reward bound r.  This bench regenerates the quantity the
// figure depicts: the joint probability surface
//
//   Pr{Y_t <= r, X_t = success}
//
// over a (t, r) grid on the Q3 reduced model, which is precisely the
// function the barrier process was introduced to define.  The printed
// series shows both marginals' behaviour: increasing in r for fixed t
// (the barrier relaxes) and converging over t to the reward-bounded
// reachability probability.
// `--grid` switches to the batched-lattice comparison (core/batch.hpp):
// the whole surface through joint_probability_all_starts_grid vs the
// point-by-point loop, with the SpMV counts of both passes and a bitwise
// equality verdict written to BENCH_fig1_grid.json.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/engines/engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "models/adhoc.hpp"
#include "obs/json_writer.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

double surface_point(double t, double r) {
  const Mrm reduced = build_q3_reduced_mrm();
  const SericolaEngine engine(1e-9);
  StateSet success(reduced.num_states());
  success.insert(3);
  return engine.joint_probability_all_starts(reduced, t, r,
                                             success)[reduced.initial_state()];
}

void print_surface() {
  std::printf("=== Figure 1: joint distribution of (X_t, Y_t) ===\n");
  std::printf("Pr{Y_t <= r, X_t = success} on the Q3 reduced model\n\n");
  const Mrm reduced = build_q3_reduced_mrm();
  StateSet success(reduced.num_states());
  success.insert(3);
  const std::vector<double> times{1.0, 2.0, 4.0, 8.0, 16.0, 24.0};
  const std::vector<double> rewards{100.0, 200.0,  400.0,
                                    600.0, 1200.0, 2400.0};
  // One batched pass; `--grid` checks it bit for bit against the point
  // loop of surface_point().
  const std::vector<std::vector<double>> grid =
      SericolaEngine(1e-9).joint_probability_all_starts_grid(
          reduced, times, rewards, success);
  std::printf("t \\ r   ");
  for (double r : rewards) std::printf("%9.0f", r);
  std::printf("\n");
  for (std::size_t i = 0; i < times.size(); ++i) {
    std::printf("%5.0f h ", times[i]);
    for (std::size_t j = 0; j < rewards.size(); ++j)
      std::printf("%9.5f",
                  grid[i * rewards.size() + j][reduced.initial_state()]);
    std::printf("\n");
  }
  std::printf("\nrows increase with t (more time to reach the goal), "
              "columns with r (the Figure-1 barrier moves up)\n\n");
}

std::uint64_t spmv_between(const obs::MetricsSnapshot& before,
                           const obs::MetricsSnapshot& after) {
  const obs::MetricsSnapshot delta = obs::metrics_delta(before, after);
  return delta.counter("spmv/multiply") + delta.counter("spmv/multiply_left");
}

/// The batched-vs-looped comparison behind `--grid`: evaluates the full
/// Figure-1 surface both ways, prints it, and writes the SpMV counts and
/// the bitwise verdict to BENCH_fig1_grid.json.
int run_grid_mode() {
  // Grid mode gets its own obs guard (BENCH_fig1_grid_obs.json + ledger
  // entry): CI's bench-smoke job runs only this mode, and the perf
  // baseline-check needs the counter report it leaves behind.
  csrl_bench::BenchObs obs_guard("fig1_grid");
  const Mrm reduced = build_q3_reduced_mrm();
  const SericolaEngine engine(1e-9);
  StateSet success(reduced.num_states());
  success.insert(3);
  const std::vector<double> times{1.0, 2.0, 4.0, 8.0, 16.0, 24.0};
  const std::vector<double> rewards{100.0, 200.0,  400.0,
                                    600.0, 1200.0, 2400.0};
  const std::size_t init = reduced.initial_state();

  const obs::ScopedRecording recording(true);
  const obs::MetricsSnapshot start = obs::snapshot_metrics();
  const std::vector<std::vector<double>> batched =
      engine.joint_probability_all_starts_grid(reduced, times, rewards,
                                               success);
  const obs::MetricsSnapshot mid = obs::snapshot_metrics();
  const std::vector<std::vector<double>> looped =
      joint_grid_reference(engine, reduced, times, rewards, success);
  const std::uint64_t batched_spmvs = spmv_between(start, mid);
  const std::uint64_t looped_spmvs = spmv_between(mid, obs::snapshot_metrics());

  bool bitwise = batched.size() == looped.size();
  for (std::size_t g = 0; bitwise && g < batched.size(); ++g)
    bitwise = batched[g].size() == looped[g].size() &&
              std::memcmp(batched[g].data(), looped[g].data(),
                          batched[g].size() * sizeof(double)) == 0;

  std::printf("=== Figure 1 surface, batched lattice vs point loop ===\n");
  std::printf("t \\ r   ");
  for (double r : rewards) std::printf("%9.0f", r);
  std::printf("\n");
  for (std::size_t i = 0; i < times.size(); ++i) {
    std::printf("%5.0f h ", times[i]);
    for (std::size_t j = 0; j < rewards.size(); ++j)
      std::printf("%9.5f", batched[i * rewards.size() + j][init]);
    std::printf("\n");
  }
  const double ratio = batched_spmvs == 0
                           ? 0.0
                           : static_cast<double>(looped_spmvs) /
                                 static_cast<double>(batched_spmvs);
  std::printf("\nSpMV invocations: batched %llu, looped %llu (%.1fx), "
              "bitwise identical: %s\n",
              static_cast<unsigned long long>(batched_spmvs),
              static_cast<unsigned long long>(looped_spmvs), ratio,
              bitwise ? "yes" : "NO");

  // Wall-clock trajectory of the batched pass (median of 5 reps in the
  // obs report).  Runs after the SpMV-count snapshots above, so the
  // extra evaluations never distort the acceptance ratio; the counters
  // they add to the obs report are deterministic (same work, 6 times).
  obs_guard.timed_reps("batched_grid", [&] {
    return engine
        .joint_probability_all_starts_grid(reduced, times, rewards, success)
        .size();
  });

  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("csrl-bench-grid-v1");
  w.key("bench").value("fig1_grid");
  w.key("times").begin_array();
  for (double t : times) w.value(t);
  w.end_array();
  w.key("rewards").begin_array();
  for (double r : rewards) w.value(r);
  w.end_array();
  w.key("values").begin_array();
  for (std::size_t g = 0; g < batched.size(); ++g) w.value(batched[g][init]);
  w.end_array();
  w.key("spmv_batched").value(batched_spmvs);
  w.key("spmv_looped").value(looped_spmvs);
  w.key("spmv_ratio").value(ratio);
  w.key("bitwise_identical").value(bitwise);
  w.end_object();
  const std::string text = std::move(w).str();

  const char* path = "BENCH_fig1_grid.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  // The acceptance gate for CI's bench-smoke job: the batched pass must be
  // at least 5x cheaper and bit-identical.
  return (bitwise && (batched_spmvs == 0 || ratio >= 5.0)) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--grid") == 0) return run_grid_mode();
  }
  csrl_bench::BenchObs obs_guard("fig1_joint_distribution");
  print_surface();
  obs_guard.timed_reps("surface_point_t4_r200",
                       [] { return surface_point(4.0, 200.0); });
  obs_guard.timed_reps("surface_point_t24_r600",
                       [] { return surface_point(24.0, 600.0); });
  obs_guard.timed_reps("surface_point_t24_r2400",
                       [] { return surface_point(24.0, 2400.0); });
  return 0;
}
