// csrl_perfbench: the end-to-end benchmark binary.
//
//   csrl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--threads <n>] [--inject-wrong-reference]
//
// --trace 0 measures the end-to-end metrics with recording off: the
// median of several fresh set-ups, then whole cycles of the workload's
// requests until --seconds have passed.  --trace 1 is the separate
// traced run: a fixed number of cycles untraced and then traced, giving
// the per-layer metrics (per request) and the tracing overhead.  The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Fresh set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Lanes of the library's thread pool.  Every workload measures at one
  // lane; the self-test also runs the traced run at two.
  std::size_t threads = 1;
  bool inject_wrong_reference = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "csrl_perfbench: %s\n"
               "usage: csrl_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--threads <n>] "
               "[--inject-wrong-reference]\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-wrong-reference") {
      args.inject_wrong_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else if (flag == "--threads") {
      args.threads = std::strtoull(value.c_str(), &end, 10);
      if (args.threads == 0) usage("--threads must be positive");
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') usage("malformed value for " + flag);
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Linear-interpolation quantile (q in [0, 1]) of unsorted values.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(position);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (position - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Outcome tally_records(const std::vector<QueryRecord>& records) {
  Outcome outcome;
  outcome.attempted = records.size();
  for (const QueryRecord& record : records)
    if (!record.ok) ++outcome.failed;
  return outcome;
}

/// Runs whole cycles until `seconds` have passed (at least one cycle);
/// returns the wall time of each unit, cycle after cycle.
std::vector<double> run_cycles_for(Workload& workload, double seconds,
                                   std::vector<QueryRecord>& records) {
  std::vector<double> unit_seconds;
  const csrl::WallTimer window;
  do {
    for (std::size_t i = 0; i < workload.cycle_length(); ++i) {
      const csrl::WallTimer unit;
      workload.run_unit(i, records);
      unit_seconds.push_back(unit.seconds());
    }
  } while (window.seconds() < seconds);
  return unit_seconds;
}

/// `samples` holds `cycles` repeats of one cycle's positions, cycle after
/// cycle; returns the fastest of each position's repeats.  Every cycle
/// runs the same units and answers the same queries in the same order,
/// so a position is a sample index modulo the cycle's sample count.
///
/// Every latency and the throughput read positions this way.  The host's
/// interference only ever adds time, and it comes in stretches (up to 2x)
/// that move between vCPUs within seconds, so a median over repeats
/// follows the host's pace while the fastest repeat reads the program's
/// own cost whenever the run saw a quiet moment.
std::vector<double> fastest_per_position(const std::vector<double>& samples,
                                         std::size_t cycles) {
  const std::size_t per_cycle = samples.size() / cycles;
  if (per_cycle * cycles != samples.size())
    throw std::logic_error("cycles produced different numbers of samples");
  std::vector<double> fastest(samples.begin(), samples.begin() + per_cycle);
  for (std::size_t i = per_cycle; i < samples.size(); ++i)
    fastest[i % per_cycle] = std::min(fastest[i % per_cycle], samples[i]);
  return fastest;
}

/// Runs exactly `cycles` whole cycles; returns the wall time of each
/// unit (trace extras run outside it when `extras` is set).
std::vector<double> run_cycles(Workload& workload, std::size_t cycles,
                               bool extras, std::vector<QueryRecord>& records) {
  std::vector<double> unit_seconds;
  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < workload.cycle_length(); ++i) {
      const csrl::WallTimer unit;
      workload.run_unit(i, records);
      unit_seconds.push_back(unit.seconds());
      if (extras) workload.trace_extras(i);
    }
  }
  return unit_seconds;
}

void warm_up(Workload& workload) {
  std::vector<QueryRecord> discard;
  for (std::size_t i = 0; i < workload.warmup_units(); ++i)
    workload.run_unit(i % workload.cycle_length(), discard);
}

/// Median latency per request class against the workload median: the
/// cost guard (no class may cost more than ~10x the workload median, or
/// a latency quantile sits on a cost cliff).
void print_cost_classes(const std::vector<QueryRecord>& records) {
  std::map<std::string, std::vector<double>> by_class;
  std::vector<double> all;
  for (const QueryRecord& record : records) {
    by_class[record.label].push_back(record.latency_s);
    all.push_back(record.latency_s);
  }
  const double median = quantile(all, 0.5);
  double worst = 0.0;
  for (const auto& [label, latencies] : by_class) {
    const double class_median = quantile(latencies, 0.5);
    worst = std::max(worst, class_median / median);
    std::printf("  class %-24s n=%-6zu median %9.3f ms\n", label.c_str(),
                latencies.size(), class_median * 1e3);
  }
  std::printf("cost-guard max_class_ratio=%.3f\n", worst);
}

void print_result(const Outcome& outcome, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run_end_to_end(Workload& workload, const Args& args) {
  std::vector<double> setups;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const csrl::WallTimer timer;
    workload.setup();
    setups.push_back(timer.seconds());
  }
  workload.compute_references();
  warm_up(workload);

  std::vector<QueryRecord> records;
  const std::vector<double> units =
      run_cycles_for(workload, args.seconds, records);
  const std::size_t cycles = units.size() / workload.cycle_length();
  const Outcome outcome = tally_records(records);

  // Latency quantiles: over the cycle's query positions, each at the
  // fastest of its repeats.  Throughput: the cycle's queries over the sum
  // of its units' fastest wall times, i.e. the rate of a cycle run at the
  // quiet pace.
  std::vector<double> record_latencies;
  for (const QueryRecord& record : records)
    record_latencies.push_back(record.latency_s);
  const std::vector<double> latencies =
      fastest_per_position(record_latencies, cycles);
  double cycle_seconds = 0.0;
  for (double seconds : fastest_per_position(units, cycles))
    cycle_seconds += seconds;
  const double per_cycle = static_cast<double>(latencies.size());
  print_cost_classes(records);
  const double n = static_cast<double>(records.size());
  print_result(
      outcome,
      {{"setup_s", quantile(setups, 0.5), "s"},
       {"throughput_rps", per_cycle / cycle_seconds, "1/s"},
       {"latency_p50_ms", quantile(latencies, 0.50) * 1e3, "ms"},
       {"latency_p90_ms", quantile(latencies, 0.90) * 1e3, "ms"},
       {"latency_p99_ms", quantile(latencies, 0.99) * 1e3, "ms"},
       {"ok_ratio", static_cast<double>(outcome.attempted - outcome.failed) / n,
        "ratio"},
       {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

int run_traced(Workload& workload) {
  workload.setup();
  workload.compute_references();
  warm_up(workload);

  std::vector<QueryRecord> records;
  const std::size_t cycles = workload.traced_cycles();
  const std::vector<double> untraced =
      run_cycles(workload, cycles, false, records);

  // The traced phase: one set-up and the same cycles, recording on.
  workload.tally() = Tally{};
  (void)csrl::obs::drain_spans();
  const csrl::obs::MetricsSnapshot before = csrl::obs::snapshot_metrics();
  csrl::obs::set_recording(true);
  workload.setup();
  const std::size_t untraced_queries = records.size();
  const std::vector<double> traced = run_cycles(workload, cycles, true, records);
  // Recording goes off and the spans are drained before main returns:
  // pool workers that outlive the obs registry at exit then never record.
  csrl::obs::set_recording(false);
  const csrl::obs::MetricsSnapshot delta =
      csrl::obs::metrics_delta(before, csrl::obs::snapshot_metrics());
  const std::vector<csrl::obs::SpanEvent> events = csrl::obs::drain_spans();

  // Tracing overhead as the median over units of traced / untraced
  // wall time: both phases run the same units in the same order, so
  // pairing them takes the request mix out of the ratio.
  std::vector<double> slowdown;
  for (std::size_t i = 0; i < traced.size(); ++i)
    slowdown.push_back(traced[i] / untraced[i]);
  const double overhead = quantile(slowdown, 0.5) - 1.0;
  const std::size_t traced_queries = records.size() - untraced_queries;
  print_result(tally_records(records),
               layer_metrics(delta, events, workload.tally(), traced_queries,
                             overhead));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  // The end-to-end numbers are measured with recording off, whatever the
  // environment asks for.
  csrl::obs::set_recording(false);
  WorkloadConfig config;
  config.seed = args.seed;
  config.threads = args.threads;
  config.inject_wrong_reference = args.inject_wrong_reference;
  try {
    const std::unique_ptr<Workload> workload = make_workload(args.workload, config);
    if (!workload) usage("unknown workload " + args.workload);
    std::printf("workload %s seed %llu threads %zu%s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), config.threads,
                args.trace ? " (traced)" : "");
    return args.trace ? run_traced(*workload) : run_end_to_end(*workload, args);
  } catch (const std::exception& error) {
    csrl::obs::set_recording(false);
    std::fprintf(stderr, "csrl_perfbench: %s\n", error.what());
    return 1;
  }
}
