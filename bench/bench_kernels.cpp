// Hot-path kernel gate: active-support SpMV vs the dense fused kernel.
//
// Backward uniformisation to a single target state of a 4096-state
// birth-death chain starts from that state's indicator, whose support
// grows by one state per step, so over a small horizon the active-support
// path touches a few dozen rows per step while the dense path touches all
// 4096.  This bench runs both paths, checks the results are bitwise
// identical, and compares the "matrix/spmv/rows_active" counters.
//
// The exit code is the acceptance gate for CI's bench-smoke job: 0 only
// when the two results are bit-identical AND the active path reduced the
// rows-touched counter by at least 3x.  Results, counters and timed reps
// (1 warmup + 5 measurements, median and min) go to BENCH_kernels.json;
// the usual metric/span attribution goes to BENCH_kernels_obs.json.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ctmc/uniformisation.hpp"
#include "models/synthetic.hpp"
#include "obs/json_writer.hpp"
#include "obs/obs.hpp"
#include "util/state_set.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

std::uint64_t rows_active_since(const obs::MetricsSnapshot& before) {
  return obs::metrics_delta(before, obs::snapshot_metrics())
      .counter("matrix/spmv/rows_active");
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs_guard("kernels");

  const std::size_t n = 4096;
  const Mrm model = birth_death_mrm(n, 2.0, 3.0);
  const Ctmc& chain = model.chain();
  const double t = 2.0;

  StateSet target(n);
  target.insert(0);

  TransientOptions dense;
  dense.active_support = false;
  TransientOptions active;
  active.active_support = true;

  std::printf("=== Kernel gate: active-support SpMV vs dense ===\n");
  std::printf("birth-death chain, %zu states, single target, t=%.1f\n\n", n,
              t);

  // One clean run per configuration for the rows_active attribution.
  const obs::MetricsSnapshot before_dense = obs::snapshot_metrics();
  const std::vector<double> dense_bwd = transient_reach(chain, target, t, dense);
  const std::uint64_t rows_dense = rows_active_since(before_dense);

  const obs::MetricsSnapshot before_active = obs::snapshot_metrics();
  const std::vector<double> active_bwd =
      transient_reach(chain, target, t, active);
  const std::uint64_t rows_active = rows_active_since(before_active);

  const bool identical = bitwise_equal(dense_bwd, active_bwd);
  const double ratio = rows_active > 0
                           ? static_cast<double>(rows_dense) /
                                 static_cast<double>(rows_active)
                           : 0.0;

  std::printf("rows touched, backward: dense %10llu  active %10llu\n",
              static_cast<unsigned long long>(rows_dense),
              static_cast<unsigned long long>(rows_active));
  std::printf("reduction: %.1fx, bitwise identical: %s\n\n", ratio,
              identical ? "yes" : "NO");

  // Wall-clock reps of both backward paths.
  obs_guard.timed_reps("dense_backward", [&] {
    return transient_reach(chain, target, t, dense)[0];
  });
  obs_guard.timed_reps("active_backward", [&] {
    return transient_reach(chain, target, t, active)[0];
  });

  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("csrl-bench-kernels-v1");
  w.key("bench").value("kernels");
  w.key("states").value(static_cast<std::uint64_t>(n));
  w.key("t").value(t);
  w.key("rows_active_dense").value(rows_dense);
  w.key("rows_active_active").value(rows_active);
  w.key("reduction").value(ratio);
  w.key("bitwise_identical").value(identical);
  w.key("reps").begin_array();
  for (const csrl_bench::BenchObs::RepStats& r : obs_guard.reps()) {
    w.begin_object();
    w.key("name").value(r.name);
    w.key("reps").value(static_cast<std::uint64_t>(r.reps));
    w.key("median_ms").value(r.median_ms);
    w.key("min_ms").value(r.min_ms);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const std::string text = std::move(w).str();

  const char* path = "BENCH_kernels.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }

  return (identical && ratio >= 3.0) ? 0 : 1;
}
