// The dense backward uniformisation series (ctmc/uniformisation.hpp), the
// step behind the P1, P2 and pseudo-Erlang P3 procedures: a 4096-state
// birth-death chain, backward to one target state at three horizons.
//
// The exit code is the acceptance gate for CI's bench-smoke job: 0 only
// when every column of one transient_reach_batch run is bitwise equal to
// the single-horizon transient_reach at its horizon (the guarantee
// documented in uniformisation.hpp).  The timed rows (1 warmup + 9
// measurements, median and min) are the single run at the longest horizon
// and the batch of all three; each takes well over 10 ms per rep, so their
// medians are stable enough for the soft wall-time bands.  Results and
// timed reps go to BENCH_kernels.json; the usual metric/span attribution
// goes to BENCH_kernels_obs.json.
#include <cstdint>
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

std::uint64_t steps_since(const obs::MetricsSnapshot& before) {
  return obs::metrics_delta(before, obs::snapshot_metrics())
      .counter("uniformisation/steps");
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
  const std::vector<double> times{64.0, 128.0, 256.0};

  StateSet target(n);
  target.insert(0);

  std::printf("=== Dense backward uniformisation series ===\n");
  std::printf("birth-death chain, %zu states, single target, t =", n);
  for (double t : times) std::printf(" %.0f", t);
  std::printf("\n\n");

  // Gate: the batch reproduces each single-horizon run bit for bit.
  const obs::MetricsSnapshot before_batch = obs::snapshot_metrics();
  const std::vector<std::vector<double>> batch =
      transient_reach_batch(chain, target, times);
  const std::uint64_t steps_batch = steps_since(before_batch);

  bool identical = batch.size() == times.size();
  std::uint64_t steps_singles = 0;
  for (std::size_t i = 0; identical && i < times.size(); ++i) {
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    identical = bitwise_equal(transient_reach(chain, target, times[i]),
                              batch[i]);
    steps_singles += steps_since(before);
  }

  std::printf("uniformisation steps: batch %llu, single runs %llu\n",
              static_cast<unsigned long long>(steps_batch),
              static_cast<unsigned long long>(steps_singles));
  std::printf("batch bitwise equal to single runs: %s\n\n",
              identical ? "yes" : "NO");

  constexpr std::size_t kReps = 9;
  obs_guard.timed_reps(
      "dense_backward",
      [&] { return transient_reach(chain, target, times.back())[0]; }, kReps);
  obs_guard.timed_reps(
      "dense_backward_batch",
      [&] { return transient_reach_batch(chain, target, times).back()[0]; },
      kReps);

  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("csrl-bench-kernels-v2");
  w.key("bench").value("kernels");
  w.key("states").value(static_cast<std::uint64_t>(n));
  w.key("times").begin_array();
  for (double t : times) w.value(t);
  w.end_array();
  w.key("steps_batch").value(steps_batch);
  w.key("steps_singles").value(steps_singles);
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

  return identical ? 0 : 1;
}
