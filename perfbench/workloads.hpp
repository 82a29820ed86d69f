// The benchmark's three workloads (see README.md for the rationale of
// each).  A workload owns its models and artifacts, a seeded fixed cycle
// of units, and the reference answer of every query in that cycle.  A
// unit is one request (p3_engines, fig1_surface) or one service wave of
// many queries (service_waves); running a unit appends one QueryRecord
// per query it answered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One answered query: its latency and whether it returned ok and
/// matched its reference.
struct QueryRecord {
  double latency_s = 0.0;
  bool ok = false;
  const char* label = "";  // request class, for the cost guard
};

/// Counts the benchmark itself makes around the library's public calls
/// (the library's own counters come through obs::snapshot_metrics).
struct Tally {
  std::uint64_t parse_calls = 0;       // parse_formula + service submits
  std::uint64_t states_built = 0;      // states of the models generated
  std::uint64_t quotient_states = 0;   // internal (lumped) model states
  std::uint64_t service_failed = 0;    // service verdicts other than ok
};

struct WorkloadConfig {
  std::uint64_t seed = 1;
  /// Lanes of the library's thread pool (CheckOptions::num_threads).
  std::size_t threads = 1;
  /// Perturb every reference answer so that no answer matches: the
  /// self-test proving that a wrong answer drives ok_ratio below 1.
  bool inject_wrong_reference = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate the models and build their artifacts (or register them),
  /// replacing any earlier set-up.  Deterministic in the seed: every
  /// set-up of one run yields the same models.
  virtual void setup() = 0;

  /// Reference answer of every query of the cycle; runs after setup()
  /// and outside every timed section.
  virtual void compute_references() = 0;

  /// Units in one cycle of the workload.
  virtual std::size_t cycle_length() const = 0;

  /// Units run untimed before the timed window.
  virtual std::size_t warmup_units() const = 0;

  /// Whole cycles of the traced run (fixed, so its counts repeat).
  virtual std::size_t traced_cycles() const = 0;

  /// Run unit `index` of the cycle and append its query records.
  virtual void run_unit(std::size_t index, std::vector<QueryRecord>& out) = 0;

  /// Traced run only, outside the timed units: measurements that need
  /// an extra public call (the service's parse/plan step).
  virtual void trace_extras(std::size_t /*index*/) {}

  Tally& tally() { return tally_; }

 protected:
  Tally tally_;
};

/// The workload named `name` ("p3_engines", "fig1_surface",
/// "service_waves"); null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config);

/// Names accepted by make_workload.
std::vector<std::string> workload_names();

}  // namespace perfbench
