#include "obs/report.hpp"

#include <cstdio>

#include "obs/json_writer.hpp"

namespace csrl {
namespace obs {

std::string RunReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("csrl-run-report-v1");
  w.key("engine").value(engine);
  w.key("model").begin_object();
  w.key("states").value(static_cast<std::uint64_t>(states));
  w.key("transitions").value(static_cast<std::uint64_t>(transitions));
  w.end_object();
  w.key("truncation_error").value(truncation_error);
  w.key("total_error_bound").value(total_error_bound);
  w.key("fox_glynn").begin_object();
  w.key("left").value(fox_glynn_left);
  w.key("right").value(fox_glynn_right);
  w.end_object();
  w.key("solver_iterations").value(solver_iterations);
  w.key("uniformisation_steps").value(uniformisation_steps);
  w.key("spmv_count").value(spmv_count);
  w.key("spmm_block_products").value(spmm_block_products);
  w.key("spmm_columns").value(spmm_columns);
  w.key("sat_cache").begin_object();
  w.key("hits").value(sat_cache_hits);
  w.key("misses").value(sat_cache_misses);
  w.end_object();
  w.key("solver_residual").value(solver_residual);
  w.key("wall_seconds").value(wall_seconds);
  w.key("cost_model").begin_object();
  w.key("spmv_flops").value(cost_model.spmv_flops);
  w.key("spmv_bytes").value(cost_model.spmv_bytes);
  w.key("spmm_flops").value(cost_model.spmm_flops);
  w.key("spmm_bytes").value(cost_model.spmm_bytes);
  w.key("epilogue_flops").value(cost_model.epilogue_flops);
  w.key("epilogue_bytes").value(cost_model.epilogue_bytes);
  w.key("solver_flops").value(cost_model.solver_flops);
  w.key("solver_bytes").value(cost_model.solver_bytes);
  w.key("total_flops").value(cost_model.total_flops());
  w.key("total_bytes").value(cost_model.total_bytes());
  w.end_object();
  w.key("latency").begin_object();
  w.key("count").value(latency_count);
  w.key("p50").value(latency_p50);
  w.key("p90").value(latency_p90);
  w.key("p99").value(latency_p99);
  w.key("p999").value(latency_p999);
  w.end_object();
  w.key("spans_dropped").value(spans_dropped);
  if (lumping.enabled) {
    w.key("lumping").begin_object();
    w.key("original_states").value(lumping.original_states);
    w.key("original_transitions").value(lumping.original_transitions);
    w.key("states").value(lumping.states);
    w.key("transitions").value(lumping.transitions);
    w.key("sweeps").value(lumping.sweeps);
    w.key("splits").value(lumping.splits);
    w.key("states_resigned").value(lumping.states_resigned);
    w.key("wall_seconds").value(lumping.wall_seconds);
    w.end_object();
  }
  if (!grid_times.empty() || !grid_rewards.empty()) {
    w.key("grid").begin_object();
    w.key("times").begin_array();
    for (double t : grid_times) w.value(t);
    w.end_array();
    w.key("rewards").begin_array();
    for (double r : grid_rewards) w.value(r);
    w.end_array();
    w.end_object();
  }
  emit_metrics(w, metrics);
  emit_spans(w, spans);
  w.end_object();
  return std::move(w).str();
}

ReportScope::ReportScope()
    : recording_(true),
      before_(snapshot_metrics()),
      dropped_before_(dropped_span_events()),
      start_ns_(now_ns()) {}

void populate_metric_fields(RunReport& report, const MetricsSnapshot& gauges,
                            const std::string& latency_histogram) {
  report.fox_glynn_left =
      static_cast<std::uint64_t>(gauges.gauge("foxglynn/window_left"));
  report.fox_glynn_right =
      static_cast<std::uint64_t>(gauges.gauge("foxglynn/window_right"));
  report.solver_iterations = report.metrics.counter("solver/iterations");
  report.uniformisation_steps =
      report.metrics.counter("uniformisation/steps");
  report.spmv_count = report.metrics.counter("spmv/multiply") +
                      report.metrics.counter("spmv/multiply_left");
  report.spmm_block_products =
      report.metrics.counter("matrix/spmm/block_products");
  report.spmm_columns = report.metrics.counter("matrix/spmm/columns");
  report.sat_cache_hits = report.metrics.counter("core/sat_cache/hits");
  report.sat_cache_misses = report.metrics.counter("core/sat_cache/misses");
  report.solver_residual = gauges.gauge("solver/residual");
  report.total_error_bound = report.truncation_error;

  report.cost_model.spmv_flops = report.metrics.counter("cost/spmv/flops");
  report.cost_model.spmv_bytes = report.metrics.counter("cost/spmv/bytes");
  report.cost_model.spmm_flops = report.metrics.counter("cost/spmm/flops");
  report.cost_model.spmm_bytes = report.metrics.counter("cost/spmm/bytes");
  report.cost_model.epilogue_flops =
      report.metrics.counter("cost/epilogue/flops");
  report.cost_model.epilogue_bytes =
      report.metrics.counter("cost/epilogue/bytes");
  report.cost_model.solver_flops = report.metrics.counter("cost/solver/flops");
  report.cost_model.solver_bytes = report.metrics.counter("cost/solver/bytes");

  const MetricsSnapshot::HistogramStats latency =
      report.metrics.histogram(latency_histogram);
  report.latency_count = latency.count;
  report.latency_p50 = latency.quantile(0.50);
  report.latency_p90 = latency.quantile(0.90);
  report.latency_p99 = latency.quantile(0.99);
  report.latency_p999 = latency.quantile(0.999);
}

RunReport ReportScope::finish(std::string engine, std::size_t states,
                              std::size_t transitions,
                              double truncation_error) {
  RunReport report;
  report.engine = std::move(engine);
  report.states = states;
  report.transitions = transitions;
  report.truncation_error = truncation_error;
  report.wall_seconds = timer_.seconds();

  const MetricsSnapshot after = snapshot_metrics();
  report.metrics = metrics_delta(before_, after);

  std::vector<SpanEvent> events;
  for (SpanEvent& event : peek_spans())
    if (event.start_ns >= start_ns_) events.push_back(std::move(event));
  report.spans = aggregate_spans(events);

  populate_metric_fields(report, after, "latency/check");

  // drain_spans()/reset_all() zero the per-buffer drop counters, so a
  // scope spanning one sees after < before; clamp instead of wrapping.
  const std::uint64_t dropped_after = dropped_span_events();
  report.spans_dropped =
      dropped_after >= dropped_before_ ? dropped_after - dropped_before_
                                       : dropped_after;
  if (report.spans_dropped > 0)
    std::fprintf(stderr,
                 "csrl: obs: %llu span event(s) dropped during this run "
                 "(per-thread buffer cap); the trace and span aggregate "
                 "are truncated\n",
                 static_cast<unsigned long long>(report.spans_dropped));
  return report;
}

bool write_report_if_requested(const RunReport& report) {
  const std::string stem = output_stem("");
  if (stem.empty()) return false;
  const auto write = [](const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return written == text.size();
  };
  const bool report_ok = write(stem + ".report.json", report.to_json());
  const bool trace_ok =
      write_chrome_trace(stem + ".trace.json", peek_spans());
  return report_ok && trace_ok;
}

}  // namespace obs
}  // namespace csrl
