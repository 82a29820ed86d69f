// Parallel scaling of the three P3 engines: wall-clock time at 1/2/4/N
// threads on (a) the paper's ad-hoc-network case study (the reduced Q3
// model — tiny, so it mostly measures dispatch overhead) and (b) a large
// synthetic MRM (>= 10^5 states) where the sweeps and SpMVs dominate.
//
// Emits BENCH_parallel_scaling.json in the working directory.  Both the
// measured and the single-CPU path write the same document shape —
// schema "csrl-bench-parallel-scaling-v1" with the common "reps" array
// plus a "scaling_measured" flag — so ledger and perf tooling never
// special-case this bench.  When scaling is measured, "records" holds
// one entry per (engine, model, threads) with wall_ms (the median of
// five timed runs after a warmup, also listed under "reps"), speedup vs
// 1 thread, and a bitwise-identity flag against the 1-thread result;
// on single-CPU hosts "single_thread_profiles" carries each engine's
// full RunReport instead.
//
// Engines are measured in the shape the checker uses them in: the
// one-pass all-start-states form.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/engines/discretisation_engine.hpp"
#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "models/adhoc.hpp"
#include "models/synthetic.hpp"
#include "obs/json_writer.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "util/state_set.hpp"
#include "util/thread_pool.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

struct Record {
  std::string engine;
  std::string model;
  std::size_t states = 0;
  std::size_t threads = 0;
  double wall_ms = 0.0;
  double speedup = 1.0;
  bool identical_to_serial = true;
};

std::vector<std::size_t> thread_counts() {
  std::vector<std::size_t> counts{1, 2, 4};
  const std::size_t hw = ThreadPool::resolve_threads(0);
  counts.push_back(hw);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

/// One engine/model cell: at every thread count, the median of
/// BenchObs::timed_reps (one warmup, five timed runs); the 1-thread result
/// is the bitwise reference.
template <typename Fn>
void measure(csrl_bench::BenchObs& obs_guard, const std::string& engine,
             const std::string& model_name, std::size_t states, Fn compute,
             std::vector<Record>& out) {
  std::vector<double> reference;
  double serial_ms = 0.0;
  for (std::size_t threads : thread_counts()) {
    ThreadPool::set_global_threads(threads);
    const std::vector<double> result = obs_guard.timed_reps(
        engine + "/" + model_name + "/t" + std::to_string(threads), compute);
    const double ms = obs_guard.reps().back().median_ms;

    Record rec;
    rec.engine = engine;
    rec.model = model_name;
    rec.states = states;
    rec.threads = threads;
    rec.wall_ms = ms;
    if (threads == 1) {
      reference = result;
      serial_ms = ms;
      rec.speedup = 1.0;
      rec.identical_to_serial = true;
    } else {
      rec.speedup = ms > 0.0 ? serial_ms / ms : 0.0;
      rec.identical_to_serial =
          result.size() == reference.size() &&
          std::memcmp(result.data(), reference.data(),
                      result.size() * sizeof(double)) == 0;
    }
    std::printf("%-16s  %-12s  %7zu states  %2zu threads  "
                "%9.2f ms (median)  speedup %5.2fx  %s\n",
                engine.c_str(), model_name.c_str(), states, threads, ms,
                rec.speedup, rec.identical_to_serial ? "bit-identical" : "DIFFERS");
    std::fflush(stdout);
    out.push_back(std::move(rec));
  }
  ThreadPool::set_global_threads(1);
}

/// The single document shape both paths emit.  `records` is empty on
/// single-CPU hosts, `profiles` (pre-serialised RunReport JSON) is
/// empty when scaling was measured; the keys are always present so
/// consumers can parse unconditionally.
void write_json(const csrl_bench::BenchObs& obs_guard, bool scaling_measured,
                const std::vector<Record>& records,
                const std::vector<std::string>& profiles, const char* path) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("csrl-bench-parallel-scaling-v1");
  w.key("bench").value("parallel_scaling");
  w.key("scaling_measured").value(scaling_measured);
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
  w.key("records").begin_array();
  for (const Record& r : records) {
    w.begin_object();
    w.key("engine").value(r.engine);
    w.key("model").value(r.model);
    w.key("states").value(static_cast<std::uint64_t>(r.states));
    w.key("threads").value(static_cast<std::uint64_t>(r.threads));
    w.key("wall_ms").value(r.wall_ms);
    w.key("speedup").value(r.speedup);
    w.key("identical_to_serial").value(r.identical_to_serial);
    w.end_object();
  }
  w.end_array();
  w.key("single_thread_profiles").begin_array();
  for (const std::string& profile : profiles) w.raw(profile);
  w.end_array();
  w.end_object();
  const std::string text = std::move(w).str();

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs_guard("parallel_scaling");
  std::printf("=== Parallel scaling of the P3 engines ===\n");
  std::printf("hardware threads: %zu (CSRL_THREADS overrides)\n\n",
              ThreadPool::resolve_threads(0));
  {
    const Mrm q3 = build_q3_reduced_mrm();
    StateSet success(q3.num_states());
    success.insert(3);  // amalgamated "success" state of the reduction
    const SericolaEngine engine(1e-8);
    obs_guard.timed_reps("sericola_q3", [&] {
      return engine.joint_probability_all_starts(
          q3, kTimeBoundHours, kRewardBoundMah, success)[0];
    });
  }

  // On a single-CPU host every multi-thread point would just measure
  // oversubscription noise and report speedups < 1 that say nothing about
  // the code.  The scaling table is skipped (marked explicitly, so
  // downstream tooling can tell "not measured" from "measured badly"),
  // but each engine still runs once at 1 thread and its full RunReport —
  // Fox-Glynn window, iteration/SpMV counters, span timings — is emitted
  // so the perf trajectory keeps its attribution data on such hosts.
  if (ThreadPool::resolve_threads(0) <= 1) {
    std::printf(
        "single hardware thread: skipping scaling measurements, recording "
        "single-thread engine profiles instead\n");
    ThreadPool::set_global_threads(1);
    const Mrm q3 = build_q3_reduced_mrm();
    const std::size_t n = q3.num_states();
    StateSet success(n);
    success.insert(3);  // amalgamated "success" state of the reduction

    std::vector<std::string> profiles;
    const auto profile = [&](const std::string& engine, double truncation,
                             const auto& compute) {
      obs::ReportScope scope;
      compute();
      const obs::RunReport report = scope.finish(
          engine, n, q3.rates().nnz(), truncation);
      std::printf("%-16s  %7zu states  1 thread   %9.2f ms\n", engine.c_str(),
                  n, report.wall_seconds * 1e3);
      profiles.push_back(report.to_json());
    };
    profile("sericola", 1e-8, [&] {
      SericolaEngine(1e-8).joint_probability_all_starts(
          q3, kTimeBoundHours, kRewardBoundMah, success);
    });
    profile("erlang-64", 1e-9, [&] {
      ErlangEngine(64).joint_probability_all_starts(
          q3, kTimeBoundHours, kRewardBoundMah, success);
    });
    profile("discretisation", 1.0 / 32.0, [&] {
      DiscretisationEngine(1.0 / 32.0)
          .joint_probability_all_starts(q3, kTimeBoundHours, kRewardBoundMah,
                                        success);
    });

    write_json(obs_guard, /*scaling_measured=*/false, {}, profiles,
               "BENCH_parallel_scaling.json");
    return 0;
  }

  std::vector<Record> records;

  // --- The paper's ad-hoc-network case study (reduced Q3 model). ---
  {
    const Mrm q3 = build_q3_reduced_mrm();
    const std::size_t n = q3.num_states();
    StateSet success(n);
    success.insert(3);  // amalgamated "success" state of the reduction
    measure(obs_guard, "sericola", "adhoc-q3", n,
            [&] {
              return SericolaEngine(1e-8).joint_probability_all_starts(
                  q3, kTimeBoundHours, kRewardBoundMah, success);
            },
            records);
    measure(obs_guard, "erlang-64", "adhoc-q3", n,
            [&] {
              return ErlangEngine(64).joint_probability_all_starts(
                  q3, kTimeBoundHours, kRewardBoundMah, success);
            },
            records);
    measure(obs_guard, "discretisation", "adhoc-q3", n,
            [&] {
              return DiscretisationEngine(1.0 / 32.0)
                  .joint_probability_all_starts(q3, kTimeBoundHours,
                                                kRewardBoundMah, success);
            },
            records);
  }

  // --- A large synthetic MRM (>= 10^5 states). ---
  // Few distinct reward levels (Sericola's store is O(m N |S|)), modest
  // exit rates (the discretisation grid needs E(s) d < 1), ~5 transitions
  // per state.
  {
    const Mrm big = random_mrm(7, 100000, 4.0e-5, 1.0, 3);
    const std::size_t n = big.num_states();
    StateSet target(n);
    for (std::size_t s = n - 100; s < n; ++s) target.insert(s);
    const double t = 0.5;
    const double r = 0.4 * big.max_reward() * t;

    measure(obs_guard, "sericola", "random-100k", n,
            [&] {
              return SericolaEngine(1e-6).joint_probability_all_starts(
                  big, t, r, target);
            },
            records);
    measure(obs_guard, "erlang-8", "random-100k", n,
            [&] {
              return ErlangEngine(8).joint_probability_all_starts(big, t, r,
                                                                  target);
            },
            records);
    measure(obs_guard, "discretisation", "random-100k", n,
            [&] {
              return DiscretisationEngine(1.0 / 16.0)
                  .joint_probability_all_starts(big, t, 0.5, target);
            },
            records);
  }

  write_json(obs_guard, /*scaling_measured=*/true, records, {},
             "BENCH_parallel_scaling.json");
  return 0;
}
