#include "layers.hpp"

#include <algorithm>
#include <string_view>

namespace perfbench {
namespace {

using csrl::obs::SpanEvent;

/// A span event with its own name: the path minus its parent's path.
/// Parents are recovered per thread from interval nesting and depth.
struct Span {
  std::string name;
  double ms = 0.0;
  int parent = -1;
};

std::vector<Span> span_tree(const std::vector<SpanEvent>& events) {
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanEvent& x = events[a];
    const SpanEvent& y = events[b];
    if (x.thread != y.thread) return x.thread < y.thread;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.depth < y.depth;
  });
  std::vector<Span> spans(events.size());
  std::vector<std::size_t> stack;  // open ancestors on the current thread
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const SpanEvent& e = events[i];
    if (k > 0 && events[order[k - 1]].thread != e.thread) stack.clear();
    while (!stack.empty()) {
      const SpanEvent& top = events[stack.back()];
      if (top.depth < e.depth &&
          top.start_ns + top.duration_ns >= e.start_ns + e.duration_ns)
        break;
      stack.pop_back();
    }
    spans[i].ms = static_cast<double>(e.duration_ns) * 1e-6;
    if (!stack.empty() && e.path.size() > events[stack.back()].path.size()) {
      spans[i].parent = static_cast<int>(stack.back());
      spans[i].name = e.path.substr(events[stack.back()].path.size() + 1);
    } else {
      spans[i].name = e.path;
    }
    stack.push_back(i);
  }
  return spans;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Busy time of a span family: the outermost spans whose own name starts
/// with `prefix` (nested spans of the same family are not counted twice).
double family_ms(const std::vector<Span>& spans, std::string_view prefix) {
  double total = 0.0;
  for (const Span& span : spans) {
    if (!starts_with(span.name, prefix)) continue;
    bool nested = false;
    for (int p = span.parent; p >= 0 && !nested; p = spans[p].parent)
      nested = starts_with(spans[p].name, prefix);
    if (!nested) total += span.ms;
  }
  return total;
}

/// Sum of the counters named cost/<kernel>/<suffix>.
double cost_total(const csrl::obs::MetricsSnapshot& delta,
                  std::string_view suffix) {
  double total = 0.0;
  for (const auto& [name, value] : delta.counters) {
    const std::string_view n = name;
    if (starts_with(n, "cost/") && n.size() > suffix.size() &&
        n.substr(n.size() - suffix.size()) == suffix)
      total += static_cast<double>(value);
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> layer_metrics(
    const csrl::obs::MetricsSnapshot& delta,
    const std::vector<SpanEvent>& events, const Tally& tally,
    std::size_t requests, double trace_overhead) {
  const std::vector<Span> spans = span_tree(events);
  const double n = static_cast<double>(std::max<std::size_t>(requests, 1));
  const auto count = [&](const char* name) {
    return static_cast<double>(delta.counter(name));
  };
  const auto ms = [&](std::string_view prefix) {
    return family_ms(spans, prefix) / n;
  };
  const double bytes = cost_total(delta, "/bytes");
  const double flops = cost_total(delta, "/flops");
  const double hits = count("core/sat_cache/hits");
  const double misses = count("core/sat_cache/misses");
  return {
      {"logic.parse_calls", static_cast<double>(tally.parse_calls) / n, "count"},
      {"logic.parse_ms", ms("bench/logic/"), "ms"},
      {"models.build_ms", ms("bench/models/build"), "ms"},
      {"models.states", static_cast<double>(tally.states_built) / n, "count"},
      {"mrm.artifacts_ms", ms("bench/mrm/artifacts"), "ms"},
      {"mrm.lump_sweeps", count("lump/sweeps") / n, "count"},
      {"mrm.lump_states_resigned", count("lump/states_resigned") / n, "count"},
      {"mrm.quotient_states", static_cast<double>(tally.quotient_states) / n,
       "count"},
      {"mrm.dual_transforms", count("mrm/dual_transforms") / n, "count"},
      {"core.check_ms", ms("bench/core/check"), "ms"},
      {"core.until_grid_ms", ms("bench/core/until_grid"), "ms"},
      {"core.sat_cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"core.p3_trivial_cases", count("p3/trivial_cases") / n, "count"},
      {"engines.sericola_ms", ms("p3/sericola/"), "ms"},
      {"engines.erlang_ms", ms("p3/erlang/"), "ms"},
      {"engines.discretisation_ms", ms("p3/discretisation/"), "ms"},
      {"engines.sericola_jump_levels", count("p3/sericola/jump_levels") / n,
       "count"},
      {"engines.discretisation_sweeps", count("p3/discretisation/sweeps") / n,
       "count"},
      {"ctmc.transient_ms", ms("ctmc/transient/"), "ms"},
      {"ctmc.uniformisation_steps", count("uniformisation/steps") / n, "count"},
      {"ctmc.foxglynn_windows", count("foxglynn/windows") / n, "count"},
      {"matrix.spmv_calls",
       (count("spmv/multiply") + count("spmv/multiply_left")) / n, "count"},
      {"matrix.spmm_block_products", count("matrix/spmm/block_products") / n,
       "count"},
      {"matrix.bytes", bytes / n, "B"},
      {"matrix.flops", flops / n, "count"},
      // Computed from the cost model's counters, not measured traffic.
      {"matrix.flops_per_byte", ratio(flops, bytes), "ratio"},
      {"matrix.solver_iterations", count("solver/iterations") / n, "count"},
      {"pool.dispatches", count("pool/dispatches") / n, "count"},
      {"pool.inline_runs", count("pool/inline_runs") / n, "count"},
      {"pool.worker_idle_ms", count("pool/worker_idle_ns") * 1e-6 / n, "ms"},
      {"service.submit_ms", ms("bench/service/submit"), "ms"},
      {"service.drain_ms", ms("bench/service/drain"), "ms"},
      {"service.register_ms", ms("bench/service/register"), "ms"},
      {"service.batches", count("service/batches") / n, "count"},
      {"service.lattice_cells", count("service/lattice/cells") / n, "count"},
      {"service.coalesced_ratio",
       ratio(count("service/queries/coalesced"),
             count("service/queries/completed")),
       "ratio"},
      {"service.failed", static_cast<double>(tally.service_failed) / n, "count"},
      {"obs.trace_overhead", trace_overhead, "ratio"},
  };
}

}  // namespace perfbench
