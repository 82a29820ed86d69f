// Lane-product gate: the Figure-1-style Sericola grid, whose per-level
// coefficient products run as one lane product over state-major rows,
// against a looped one-column oracle.
//
// The Sericola recursion's m * n per-level coefficient products
// P * c(h, n-1, k) all share the matrix.  The engine reads them as one
// band of each state's coefficient row and streams P once per level for
// all of them (CsrMatrix::multiply_lanes_row); the oracle below is the
// textbook form (tests/sericola_one_column_oracle.hpp), one vector per
// (h, k) and one multiply() per product, so it re-streams P for every
// vector.  The bench evaluates the same
// all-starts joint-probability surface both ways on a synthetic MRM whose
// CSR arrays outgrow L2, and times both with 1 warmup + 5 timed reps.
//
// The exit code is the acceptance gate for CI's bench-smoke job.  It is
// structural, read from the deterministic cost counters rather than from
// wall-clock: 0 only when the grids are bitwise identical AND the
// engine's lane products stream the matrix exactly once per jump level —
// one matrix/spmm/block_products per level and cost/spmm/bytes equal to
// sum_n (16 nnz + 8 rows + 8 m n (nnz + rows)), the entry stream paid
// once per level.  The wall-clock ratio is printed as a soft band only.
// Results go to BENCH_spmm.json; the usual metric/span attribution goes
// to BENCH_spmm_obs.json.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/engines/sericola_engine.hpp"
#include "matrix/simd.hpp"
#include "models/synthetic.hpp"
#include "obs/json_writer.hpp"
#include "obs/obs.hpp"
#include "sericola_one_column_oracle.hpp"
#include "util/state_set.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

bool bitwise_equal(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t g = 0; g < a.size(); ++g) {
    if (a[g].size() != b[g].size() ||
        std::memcmp(a[g].data(), b[g].data(), a[g].size() * sizeof(double)) !=
            0)
      return false;
  }
  return true;
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs_guard("spmm");

  // Mean degree ~61 puts the CSR arrays well past L2, so the one-column
  // oracle pays a full matrix stream per coefficient vector while the
  // lane product pays one per level.
  const std::size_t n = 10000;
  const Mrm model = random_mrm(/*seed=*/7, n, /*density=*/120.0 / n);
  StateSet target(n);
  for (std::size_t s = 0; s < n; s += 7) target.insert(s);
  // Short horizons keep the truncation depth (and so the bench's
  // wall-clock) modest.  Rewards sit strictly inside (0, max_reward * t)
  // so no grid cell degenerates to a trivial case.
  const std::vector<double> times{0.14, 0.15};
  const std::vector<double> rewards{0.1, 0.3};
  const double epsilon = 1e-7;
  const SericolaEngine engine(epsilon);
  const std::size_t m = oracle::reward_levels(model).size() - 1;
  const std::size_t depth = engine.truncation_depth(model, times.back());

  std::printf("=== Lane-product gate: Sericola grid vs one-column oracle ===\n");
  std::printf(
      "random MRM, %zu states, %zu transitions; %zux%zu grid, eps=%.0e\n"
      "simd: %s, reward intervals m = %zu, truncation depth N = %zu\n\n",
      n, model.rates().nnz(), times.size(), rewards.size(), epsilon,
      simd_isa(), m, depth);

  // Bitwise identity, and the engine's lane-product counters over one
  // clean run.
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  const std::vector<std::vector<double>> grid =
      engine.joint_probability_all_starts_grid(model, times, rewards, target);
  const obs::MetricsSnapshot delta =
      obs::metrics_delta(before, obs::snapshot_metrics());
  const std::vector<std::vector<double>> oracle =
      oracle::sericola_one_column_grid(model, times, rewards, target, epsilon);
  const bool identical = bitwise_equal(grid, oracle);
  std::printf("bitwise identical to the one-column oracle: %s\n",
              identical ? "yes" : "NO");

  // The matrix is streamed once per jump level for the coefficient
  // products: levels 1..N each run one lane product of m * n lanes.
  const std::uint64_t nnz =
      model.chain().uniformised_dtmc(model.chain().max_exit_rate()).nnz();
  const std::uint64_t rows = n;
  std::uint64_t expected_bytes = 0;
  for (std::uint64_t level = 1; level <= depth; ++level)
    expected_bytes += 16 * nnz + 8 * rows + 8 * m * level * (nnz + rows);
  const std::uint64_t products = delta.counter("matrix/spmm/block_products");
  const std::uint64_t bytes = delta.counter("cost/spmm/bytes");
#ifdef CSRL_OBS_DISABLED
  const bool streamed_once = true;  // no counters to read
#else
  const bool streamed_once = products == depth && bytes == expected_bytes;
#endif
  std::printf("lane products: %llu over %zu levels; cost/spmm/bytes %llu, "
              "expected %llu: %s\n\n",
              static_cast<unsigned long long>(products), depth,
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(expected_bytes),
              streamed_once ? "one matrix stream per level" : "MISMATCH");

  obs_guard.timed_reps("grid_lanes", [&] {
    return engine.joint_probability_all_starts_grid(model, times, rewards,
                                                    target)[0][0];
  });
  obs_guard.timed_reps("grid_one_column", [&] {
    return oracle::sericola_one_column_grid(model, times, rewards, target, epsilon)[0][0];
  });

  double lanes_ms = 0.0;
  double one_column_ms = 0.0;
  for (const csrl_bench::BenchObs::RepStats& r : obs_guard.reps()) {
    if (r.name == "grid_lanes") lanes_ms = r.median_ms;
    if (r.name == "grid_one_column") one_column_ms = r.median_ms;
  }
  const double speedup = lanes_ms > 0.0 ? one_column_ms / lanes_ms : 0.0;
  std::printf("\nmedian wall-clock: lanes %.1f ms, one-column %.1f ms "
              "(%.2fx; soft band, not gated)\n",
              lanes_ms, one_column_ms, speedup);

  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("csrl-bench-spmm-v2");
  w.key("bench").value("spmm");
  w.key("states").value(static_cast<std::uint64_t>(n));
  w.key("transitions").value(static_cast<std::uint64_t>(model.rates().nnz()));
  w.key("simd_isa").value(simd_isa());
  w.key("reward_intervals").value(static_cast<std::uint64_t>(m));
  w.key("truncation_depth").value(static_cast<std::uint64_t>(depth));
  w.key("lane_products").value(products);
  w.key("spmm_bytes").value(bytes);
  w.key("spmm_bytes_expected").value(expected_bytes);
  w.key("lanes_median_ms").value(lanes_ms);
  w.key("one_column_median_ms").value(one_column_ms);
  w.key("speedup").value(speedup);
  w.key("bitwise_identical").value(identical);
  w.key("streamed_once_per_level").value(streamed_once);
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

  const char* path = "BENCH_spmm.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }

  return (identical && streamed_once) ? 0 : 1;
}
