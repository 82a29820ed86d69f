// Shared observability hook-up for the bench executables.
//
// A BenchObs guard at the top of main() turns recording on for the whole
// run and, on exit, writes BENCH_<name>_obs.json next to the bench's own
// output: the metric delta of the run (Fox-Glynn windows, iteration and
// SpMV counts, pool dispatch statistics) and the flat span aggregate.
// The perf trajectory thereby carries attribution — a wall-clock
// regression in BENCH_*.json can be matched against the counters that
// explain it without re-running anything.
// Every bench also routes its headline workloads through timed_reps():
// one warmup run, then at least five timed repetitions, with the median
// and minimum wall-clock recorded under the "reps" key of the obs JSON.
// Medians resist scheduler noise; minima approximate the unloaded cost.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "matrix/simd.hpp"
#include "obs/json_writer.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "util/thread_pool.hpp"

namespace csrl_bench {

class BenchObs {
 public:
  struct RepStats {
    std::string name;
    std::size_t reps;
    double median_ms;
    double min_ms;
  };

  explicit BenchObs(std::string name)
      : name_(std::move(name)), before_(csrl::obs::snapshot_metrics()) {}

  BenchObs(const BenchObs&) = delete;
  BenchObs& operator=(const BenchObs&) = delete;

  /// Run `fn` once untimed (warmup), then `reps` (>= 5) timed times;
  /// record the median and minimum wall-clock under `label` in the
  /// "reps" section of the obs JSON and return the last run's result.
  template <typename Fn>
  auto timed_reps(const std::string& label, Fn&& fn, std::size_t reps = 5) {
    if (reps < 5) reps = 5;
    fn();  // warmup: faults pages, warms caches and allocator pools
    std::vector<double> seconds;
    seconds.reserve(reps);
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      for (std::size_t i = 0; i < reps; ++i) {
        csrl::WallTimer timer;
        fn();
        seconds.push_back(timer.seconds());
        // Every rep also lands in the log-bucketed latency histogram, so
        // the obs JSON carries p50/p99 across workloads alongside the
        // per-workload median/min.
        CSRL_HIST("latency/bench_rep", seconds.back());
      }
      record_reps(label, seconds);
    } else {
      std::invoke_result_t<Fn&> result{};
      for (std::size_t i = 0; i < reps; ++i) {
        csrl::WallTimer timer;
        result = fn();
        seconds.push_back(timer.seconds());
        CSRL_HIST("latency/bench_rep", seconds.back());
      }
      record_reps(label, seconds);
      return result;
    }
  }

  ~BenchObs() {
    const csrl::obs::MetricsSnapshot after = csrl::obs::snapshot_metrics();
    const csrl::obs::MetricsSnapshot delta =
        csrl::obs::metrics_delta(before_, after);
    const std::vector<csrl::obs::SpanAggregate> spans =
        csrl::obs::aggregate_spans(csrl::obs::peek_spans());

    csrl::obs::JsonWriter w;
    w.begin_object();
    w.key("schema").value("csrl-bench-obs-v1");
    w.key("bench").value(name_);
    // Kernel configuration of this run, so perf trajectories can be
    // compared like-for-like: the SIMD instruction set the lane loops
    // were compiled for ("scalar" under CSRL_SIMD=OFF) and the thread
    // count.
    w.key("simd_isa").value(csrl::simd_isa());
    const std::uint64_t threads = csrl::ThreadPool::global().num_threads();
    w.key("threads").value(threads);
    const std::uint64_t spans_dropped = csrl::obs::dropped_span_events();
    w.key("spans_dropped").value(spans_dropped);
    if (spans_dropped > 0)
      std::fprintf(stderr,
                   "csrl: obs: %llu span event(s) dropped during this bench "
                   "(per-thread buffer cap); the span aggregate is "
                   "truncated\n",
                   static_cast<unsigned long long>(spans_dropped));
    w.key("reps").begin_array();
    for (const RepStats& r : rep_stats_) {
      w.begin_object();
      w.key("name").value(r.name);
      w.key("reps").value(static_cast<std::uint64_t>(r.reps));
      w.key("median_ms").value(r.median_ms);
      w.key("min_ms").value(r.min_ms);
      w.end_object();
    }
    w.end_array();
    csrl::obs::emit_metrics(w, delta);
    csrl::obs::emit_spans(w, spans);
    w.end_object();
    const std::string text = std::move(w).str();

    const std::string path = "BENCH_" + name_ + "_obs.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    }

    // Run ledger: append this report to BENCH_history.jsonl (or the
    // CSRL_BENCH_LEDGER override) stamped with git SHA, build flags and
    // the hardware fingerprint, so the perf trajectory accumulates
    // across invocations.  A ledger write failure warns but never fails
    // the bench — gates live in the bench's own exit code.
    const std::string ledger = csrl::obs::ledger_path();
    if (!ledger.empty()) {
      csrl::obs::LedgerStamp stamp;
      stamp.bench = name_;
      stamp.simd_isa = csrl::simd_isa();
      stamp.threads = threads;
#ifdef CSRL_OBS_DISABLED
      stamp.obs_compiled = false;
#endif
      const std::string line = csrl::obs::ledger_line(stamp, text);
      if (csrl::obs::append_ledger_line(ledger, line))
        std::printf("appended %s\n", ledger.c_str());
      else
        std::fprintf(stderr, "cannot append to %s\n", ledger.c_str());
    }
  }

  /// Stats recorded by timed_reps so far, in call order.
  const std::vector<RepStats>& reps() const { return rep_stats_; }

 private:
  void record_reps(const std::string& label, std::vector<double>& seconds) {
    std::sort(seconds.begin(), seconds.end());
    rep_stats_.push_back({label, seconds.size(),
                          seconds[seconds.size() / 2] * 1e3,
                          seconds.front() * 1e3});
    std::printf("[reps] %-32s %zu reps: median %.3f ms, min %.3f ms\n",
                label.c_str(), seconds.size(), rep_stats_.back().median_ms,
                rep_stats_.back().min_ms);
  }

  csrl::obs::ScopedRecording recording_{true};
  std::string name_;
  csrl::obs::MetricsSnapshot before_;
  std::vector<RepStats> rep_stats_;
};

}  // namespace csrl_bench
