// Machine-readable run reports.
//
// A RunReport ties one checking/engine run's end-to-end number to the
// phase-level counters that explain it: the engine chosen, the model
// dimensions, the Fox-Glynn window actually used, iteration and SpMV
// counts, solver residuals, the flat span aggregate and the full metric
// delta of the run.  Benches serialise it next to their BENCH_*.json so
// the perf trajectory carries attribution, and Checker::check attaches
// it to CheckResult when CheckOptions::report (or CSRL_TRACE) asks.
//
// Collection protocol: construct a ReportScope before the work (it
// forces recording on and snapshots the registry), run the work, then
// finish() — the report holds the metric delta and the spans that
// started inside the scope.  Scopes do not nest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace csrl {
namespace obs {

struct RunReport {
  /// Engine or pipeline the run used ("sericola", "erlang-256", ...).
  std::string engine;

  /// Model dimensions: state count and rate-matrix non-zeros.
  std::size_t states = 0;
  std::size_t transitions = 0;

  /// Configured a-priori truncation error of the run's series (the
  /// Sericola epsilon or the transient-analysis epsilon).
  double truncation_error = 0.0;

  /// The run's total error bound.  Today the configured truncation_error
  /// is its only source.
  double total_error_bound = 0.0;

  /// Key effort indicators lifted out of `metrics` for direct access.
  std::uint64_t fox_glynn_left = 0;
  std::uint64_t fox_glynn_right = 0;
  std::uint64_t solver_iterations = 0;
  std::uint64_t uniformisation_steps = 0;
  std::uint64_t spmv_count = 0;
  double solver_residual = 0.0;

  /// Lane-product usage (matrix/spmm.cpp): the number of lane products
  /// the run issued and the total lane count they carried.
  /// spmm_columns / spmm_block_products is the achieved mean width; both
  /// are 0 when every product ran the one-RHS path.  The per-lane SpMV
  /// work is already folded into spmv_count (a lane product bumps the
  /// spmv counters by its width).
  std::uint64_t spmm_block_products = 0;
  std::uint64_t spmm_columns = 0;

  /// Sat-subformula cache traffic of the run window (the
  /// "core/sat_cache/hits|misses" counters), aggregated across every
  /// checker that probed a cache — shared caches included.  Per-SatCache
  /// stats() cannot see cross-session reuse (each instance only counts
  /// its own probes, and a service builds many short-lived checkers);
  /// these counters can, so the resident service pins its cross-client
  /// hit rate on them.
  std::uint64_t sat_cache_hits = 0;
  std::uint64_t sat_cache_misses = 0;

  double wall_seconds = 0.0;

  /// Deterministic cost accounting: flop and memory-traffic totals the
  /// kernels computed from their structural dimensions (nnz, rows,
  /// lane widths, sweep counts) — pure functions of the run, identical
  /// across machines, thread counts and reps, so perf gates can compare
  /// them exactly where wall time only supports noise bands.  The
  /// traffic model is documented per kernel family in DESIGN.md §3h.
  struct CostModel {
    std::uint64_t spmv_flops = 0;      // cost/spmv/flops
    std::uint64_t spmv_bytes = 0;      // cost/spmv/bytes
    std::uint64_t spmm_flops = 0;      // cost/spmm/flops
    std::uint64_t spmm_bytes = 0;      // cost/spmm/bytes
    std::uint64_t epilogue_flops = 0;  // cost/epilogue/flops
    std::uint64_t epilogue_bytes = 0;  // cost/epilogue/bytes
    std::uint64_t solver_flops = 0;    // cost/solver/flops
    std::uint64_t solver_bytes = 0;    // cost/solver/bytes

    std::uint64_t total_flops() const {
      return spmv_flops + spmm_flops + epilogue_flops + solver_flops;
    }
    std::uint64_t total_bytes() const {
      return spmv_bytes + spmm_bytes + epilogue_bytes + solver_bytes;
    }
  };
  CostModel cost_model;

  /// End-to-end check latency distribution of the run window (the
  /// "latency/check" histogram delta): sample count and nearest-rank
  /// quantiles in seconds.  One sample per Checker::check; a resident
  /// service reusing one scope across queries gets real percentiles.
  std::uint64_t latency_count = 0;
  double latency_p50 = 0.0;
  double latency_p90 = 0.0;
  double latency_p99 = 0.0;
  double latency_p999 = 0.0;

  /// Span events dropped during the run window (per-thread buffer cap
  /// reached).  Nonzero means `spans` undercounts; finish() also warns
  /// on stderr so a truncated trace is never mistaken for complete.
  std::uint64_t spans_dropped = 0;

  /// Lumping preprocessing of the run (CheckOptions::lump): the original
  /// vs quotient dimensions and the refiner's work accounting.  `states`
  /// and `transitions` at the top of the report already describe the
  /// quotient (the model the engines actually ran on); this section
  /// carries the reduction it bought.  Emitted as a "lumping" object in
  /// the JSON only when enabled.
  struct Lumping {
    bool enabled = false;
    std::uint64_t original_states = 0;
    std::uint64_t original_transitions = 0;
    std::uint64_t states = 0;       // quotient blocks
    std::uint64_t transitions = 0;  // quotient rate-matrix non-zeros
    std::uint64_t sweeps = 0;
    std::uint64_t splits = 0;
    std::uint64_t states_resigned = 0;
    double wall_seconds = 0.0;
  };
  Lumping lumping;

  /// Bound lattice of a batched grid run (Checker::until_grid):
  /// the time and reward axes the query evaluated.  Empty for point
  /// queries; emitted as a "grid" object in the JSON only when set.
  std::vector<double> grid_times;
  std::vector<double> grid_rewards;

  /// Metric delta of the run (counters/histograms) plus current gauges.
  MetricsSnapshot metrics;

  /// Flat per-path span aggregate of the run.
  std::vector<SpanAggregate> spans;

  /// Stable-keyed JSON document ("csrl-run-report-v1").
  std::string to_json() const;
};

/// Fill every metric-derived field of `report` from `report.metrics`
/// (the run's counter/histogram delta, which must already be set) and
/// `gauges` (current gauge values): Fox-Glynn window, solver /
/// uniformisation / SpMV / SpMM totals, Sat-cache traffic, truncation
/// bounds, the cost model, and the latency quantiles lifted from the
/// `latency_histogram` entry of the delta ("latency/check" for single
/// checks, "service/latency/query" for the resident service's
/// aggregated report).  ReportScope::finish and
/// service::CheckerService::report share this one lifting.
void populate_metric_fields(RunReport& report, const MetricsSnapshot& gauges,
                            const std::string& latency_histogram);

/// RAII collection window (see file comment).
class ReportScope {
 public:
  ReportScope();

  /// Build the report for everything recorded since construction.
  /// Callable once; the scope stays recording until destruction.
  RunReport finish(std::string engine, std::size_t states,
                   std::size_t transitions, double truncation_error);

 private:
  ScopedRecording recording_;
  MetricsSnapshot before_;
  std::uint64_t dropped_before_;
  std::int64_t start_ns_;
  WallTimer timer_;
};

/// Write `report` to "<stem>.report.json" and the chrome trace of all
/// currently buffered spans to "<stem>.trace.json" when the
/// CSRL_OBS_OUT environment variable is set; no-op otherwise.  Returns
/// true when files were written.
bool write_report_if_requested(const RunReport& report);

}  // namespace obs
}  // namespace csrl
