// Per-layer metrics of the traced run, all normalised per request.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One reported metric: a name from BENCHMARK.json, its value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per_layer metrics of BENCHMARK.json from one traced phase: the
/// library's metric delta, its span events (the benchmark's own bench/*
/// spans around each public call plus the library's p3/* and ctmc/*
/// spans), the benchmark's own tally, the number of requests answered
/// and the measured tracing overhead.
std::vector<Metric> layer_metrics(
    const csrl::obs::MetricsSnapshot& delta,
    const std::vector<csrl::obs::SpanEvent>& events, const Tally& tally,
    std::size_t requests, double trace_overhead);

}  // namespace perfbench
